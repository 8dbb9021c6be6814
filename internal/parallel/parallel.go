// Package parallel is the shared bounded worker-pool execution engine
// behind every data-parallel hot path in the repository: the limb-parallel
// kernels of internal/poly and internal/ntt, the decomposition-digit and
// rotation fan-out of internal/ckks, and the design×workload fan-out of
// internal/bench.
//
// The pool exploits the same independence the CROPHE hardware does — RNS
// limbs never interact inside element-wise, NTT, or automorphism kernels
// (paper §V), so partitioning their index space across cores is exact, not
// approximate. All helpers guarantee bit-identical results to a serial
// loop whenever the body writes only index-disjoint state, which is the
// contract every caller in this repository obeys.
//
// Design:
//
//   - One process-global token pool sized by GOMAXPROCS (override with the
//     CROPHE_WORKERS environment variable, or SetWorkers). Size 1 is the
//     serial fallback: every body runs inline on the caller's goroutine and
//     no goroutines are used.
//   - The caller always participates in the work, so a For call never
//     blocks waiting for tokens; helpers are used only when free tokens
//     exist. Nested For calls therefore degrade gracefully to inline
//     execution instead of oversubscribing — total concurrency is bounded
//     by the pool size no matter how deeply kernels nest
//     (evaluator → poly → ntt).
//   - Helpers are long-lived goroutines, workers-1 per pool, started with
//     the pool and parked between calls. A call hands its chunk loop to a
//     parked helper instead of starting a goroutine, so a fan-out costs
//     one allocation and leaves no goroutine descriptors behind.
//     SetWorkers retires the replaced pool's helpers.
//   - Panics inside bodies are captured and re-raised on the caller's
//     goroutine, preserving the serial panic contract of the kernels.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// tokens is the global pool: acquiring a token licenses one helper to
// work on a call. Capacity is workers-1 (the caller is the implicit
// worker). Swapped atomically by SetWorkers.
var tokens atomic.Pointer[tokenPool]

type tokenPool struct {
	workers int
	sem     chan struct{}

	// work hands a call's chunk loop to a parked helper. A helper only
	// runs a job whose caller holds a token for it, and there are as many
	// helpers as tokens, so a hand-off waits at most for a helper that is
	// returning to park. quit retires the helpers once SetWorkers has
	// replaced the pool.
	work chan *job
	quit chan struct{}
}

func init() {
	n := runtime.GOMAXPROCS(0)
	if v := os.Getenv("CROPHE_WORKERS"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k >= 1 {
			n = k
		}
	}
	SetWorkers(n)
}

// SetWorkers resizes the pool to n workers (n < 1 is clamped to 1).
// Calls already in flight keep the pool they started with; new calls see
// the new size. The old pool's helpers exit once they are idle. Intended
// for startup configuration and for the parallel-vs-serial equivalence
// tests.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p := &tokenPool{workers: n}
	if n > 1 {
		p.sem = make(chan struct{}, n-1)
		p.work = make(chan *job)
		p.quit = make(chan struct{})
		for i := 1; i < n; i++ {
			go p.helper()
		}
	}
	if old := tokens.Swap(p); old != nil && old.quit != nil {
		close(old.quit)
	}
}

// Workers returns the configured pool size.
func Workers() int { return tokens.Load().workers }

// helper is one parked worker of p: it runs the jobs handed to it until
// p is retired.
func (p *tokenPool) helper() {
	for {
		select {
		case j := <-p.work:
			j.help()
		case <-p.quit:
			return
		}
	}
}

// tryHand takes a free token and hands j to a parked helper with it. It
// reports false, and holds no token, when none is free or the pool has
// been retired; the caller then works on alone.
func (p *tokenPool) tryHand(j *job) bool {
	select {
	case p.sem <- struct{}{}:
	default:
		return false
	}
	j.wg.Add(1)
	select {
	case p.work <- j:
		return true
	case <-p.quit:
		j.wg.Done()
		<-p.sem
		return false
	}
}

// job is one ForChunk call's shared state: its chunks are claimed from
// next by the caller and by every helper it was handed to.
type job struct {
	p        *tokenPool
	n        int
	chunks   int
	body     func(lo, hi int)
	next     atomic.Int64
	panicked atomic.Pointer[panicValue]
	wg       sync.WaitGroup
}

// run claims and runs chunks until none is left.
func (j *job) run() {
	defer func() {
		if r := recover(); r != nil {
			j.panicked.CompareAndSwap(nil, &panicValue{r})
		}
	}()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		j.body(c*j.n/j.chunks, (c+1)*j.n/j.chunks)
	}
}

// help is run on a helper: it works on the job, then returns the token
// its caller took for it.
func (j *job) help() {
	j.run()
	<-j.p.sem
	j.wg.Done()
}

// For runs body(i) for every i in [0, n), partitioning the index space
// into at most Workers() contiguous chunks. The caller's goroutine
// participates; helpers join only while pool tokens are free.
// Equivalent to a plain loop when the pool size is 1 or n <= 1.
func For(n int, body func(i int)) {
	ForChunk(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunk is the chunked form of For: body receives half-open index
// ranges [lo, hi) that exactly tile [0, n). Use it when per-worker scratch
// should be acquired once per chunk rather than once per index.
func ForChunk(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := tokens.Load()
	if p.workers <= 1 || n == 1 {
		body(0, n)
		return
	}
	j := &job{p: p, n: n, chunks: min(p.workers, n), body: body}

	// Hand the job to helpers while tokens are free; never block on the
	// pool.
	for i := 1; i < j.chunks; i++ {
		if !p.tryHand(j) {
			break
		}
	}
	j.run()
	j.wg.Wait()

	if pv := j.panicked.Load(); pv != nil {
		// Re-raise the original value so callers' recover logic sees the
		// same panic a serial loop would have produced.
		panic(pv.v)
	}
}

// ClaimEach runs body(i) for every i in [0, n) on up to workers pool
// workers, each claiming the next index from a shared counter, so items
// of very different cost still spread evenly. Indices are claimed in
// increasing order, every claimed index runs, and no new index is
// claimed once a body has returned false. With workers 1 it is a plain
// loop on the caller's goroutine.
func ClaimEach(workers, n int, body func(i int) bool) {
	var next atomic.Int64
	var stop atomic.Bool
	ForChunk(min(workers, n), func(int, int) {
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !body(i) {
				stop.Store(true)
			}
		}
	})
}

type panicValue struct{ v any }

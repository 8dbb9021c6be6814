package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs fn under a temporary pool size, restoring the previous
// size afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := Workers()
	SetWorkers(n)
	defer SetWorkers(prev)
	fn()
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		withWorkers(t, w, func() {
			for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
				hits := make([]int32, n)
				For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d: index %d hit %d times", w, n, i, h)
					}
				}
			}
		})
	}
}

func TestForChunkTilesExactly(t *testing.T) {
	withWorkers(t, 4, func() {
		n := 103
		hits := make([]int32, n)
		ForChunk(n, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("empty chunk [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("index %d hit %d times", i, h)
			}
		}
	})
}

func TestSerialFallbackRunsInline(t *testing.T) {
	withWorkers(t, 1, func() {
		// With pool size 1 the body must observe strictly increasing
		// indices on the caller's goroutine (no interleaving possible).
		last := -1
		For(100, func(i int) {
			if i != last+1 {
				t.Fatalf("out-of-order index %d after %d in serial mode", i, last)
			}
			last = i
		})
		if last != 99 {
			t.Fatalf("stopped at %d", last)
		}
	})
}

// TestClaimEachRunsEveryClaimedIndexOnce stops the claim loop at index
// stopAt: every index up to it must run exactly once, no index twice,
// and a one-worker loop must run them in order and nothing after.
func TestClaimEachRunsEveryClaimedIndexOnce(t *testing.T) {
	const n, stopAt = 200, 37
	for _, w := range []int{1, 2, 4} {
		withWorkers(t, 4, func() {
			for _, stop := range []bool{false, true} {
				hits := make([]int32, n)
				last := -1
				ClaimEach(w, n, func(i int) bool {
					atomic.AddInt32(&hits[i], 1)
					if w == 1 {
						if i != last+1 {
							t.Errorf("workers=1: index %d after %d", i, last)
						}
						last = i
					}
					return !stop || i != stopAt
				})
				for i, h := range hits {
					switch {
					case h > 1:
						t.Fatalf("workers=%d stop=%v: index %d ran %d times", w, stop, i, h)
					case h == 0 && (!stop || i <= stopAt):
						t.Fatalf("workers=%d stop=%v: index %d never ran", w, stop, i)
					case h == 1 && stop && w == 1 && i > stopAt:
						t.Fatalf("workers=1: index %d ran after the loop stopped", i)
					}
				}
			}
		})
	}
}

func TestNestedForStaysBounded(t *testing.T) {
	withWorkers(t, 4, func() {
		var inFlight, peak atomic.Int64
		For(8, func(i int) {
			For(8, func(j int) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				inFlight.Add(-1)
			})
		})
		if p := peak.Load(); p > int64(Workers()) {
			t.Fatalf("peak concurrency %d exceeds pool size %d", p, Workers())
		}
	})
}

func TestPanicPropagates(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			if s, ok := r.(string); !ok || s != "boom" {
				t.Fatalf("panic value %v, want original string", r)
			}
		}()
		For(64, func(i int) {
			if i == 13 {
				panic("boom")
			}
		})
	})
}

func TestSetWorkersClamps(t *testing.T) {
	prev := Workers()
	defer SetWorkers(prev)
	SetWorkers(0)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(0)", Workers())
	}
	SetWorkers(-3)
	if Workers() != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(-3)", Workers())
	}
}

// helpers counts the goroutines parked in or running a pool helper, of
// any pool.
func helpers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "parallel.(*tokenPool).helper(")
}

// settle waits until exactly want helpers are running, reporting whether
// that happened within a few seconds: retired helpers exit
// asynchronously.
func settle(want int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for helpers() != want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestHelpersPersistAndRetire checks that a pool of n workers keeps
// n-1 helpers however many calls it serves, and that SetWorkers retires
// the helpers of the pool it replaces.
func TestHelpersPersistAndRetire(t *testing.T) {
	defer SetWorkers(Workers())
	SetWorkers(4)
	if !settle(3) {
		t.Fatalf("%d helpers after SetWorkers(4), want 3", helpers())
	}
	before := runtime.NumGoroutine()
	var sum atomic.Int64
	for call := 0; call < 10000; call++ {
		For(8, func(i int) { sum.Add(int64(i)) })
	}
	if got, want := sum.Load(), int64(10000*28); got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
	if got := runtime.NumGoroutine(); got > before || helpers() != 3 {
		t.Fatalf("%d goroutines and %d helpers after 10000 calls, want at most %d and 3", got, helpers(), before)
	}

	for swap := 0; swap < 100; swap++ {
		SetWorkers(1 + swap%5)
		For(16, func(int) {})
	}
	SetWorkers(4)
	if !settle(3) {
		t.Fatalf("%d helpers after 100 pool swaps, want 3: replaced pools' helpers not retired", helpers())
	}
	SetWorkers(1)
	if !settle(0) {
		t.Fatalf("%d helpers at pool size 1, want 0", helpers())
	}
}

// TestPanicLeavesHelpersServing checks that a panicking body reaches the
// caller without costing the pool a helper: later calls still fan out
// and cover every index.
func TestPanicLeavesHelpersServing(t *testing.T) {
	withWorkers(t, 4, func() {
		if !settle(3) {
			t.Fatalf("%d helpers after SetWorkers(4), want 3", helpers())
		}
		for round := 0; round < 20; round++ {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("round %d: recovered %v, want the body's panic", round, r)
					}
				}()
				For(64, func(i int) {
					if i%16 == 5 {
						panic("boom")
					}
				})
			}()
		}
		if got := helpers(); got != 3 {
			t.Fatalf("%d helpers after panics, want 3", got)
		}
		var seen [64]atomic.Int32
		var inFlight, peak atomic.Int64
		For(64, func(i int) {
			seen[i].Add(1)
			cur := inFlight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
		})
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("index %d run %d times after panics", i, seen[i].Load())
			}
		}
		if peak.Load() < 2 {
			t.Fatal("no helper joined a call after panics")
		}
	})
}

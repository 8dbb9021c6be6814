// Command perfbench is the repository benchmark: four seeded workloads
// that drive the scheduler, the cycle simulator, the serving layer and
// the functional CKKS stack from outside, check every output, and print
// one JSON result line. See README.md for the workloads, the metrics and
// the evidence behind their sizes.
//
//	perfbench --workload dse-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// hardTimeout bounds every run, set-up and teardown included.
const hardTimeout = 150 * time.Second

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
var traceDir = filepath.Join(".bench_build", "traces")

// setupReps is how many times a run sets its workload up; setup_s is the
// median, so one slow set-up does not decide the figure.
const setupReps = 3

// opResult is one timed op: its latency and nil, or why it failed its
// check.
type opResult struct {
	lat    time.Duration
	err    error
	traced bool
	key    string // identifies the op's input, to match traced and untraced ops
}

// phase is the timed part of a run.
type phase struct {
	ops    []opResult
	before procSample
	after  procSample
	// layers holds the per-layer metrics the workload measured itself.
	layers map[string]float64
}

// instance is one set-up workload, ready to run its timed phase.
type instance interface {
	// run executes the timed phase; with tr non-nil, it traces every
	// other op (or pass) and records the layer metrics into the phase.
	run(tr *tracer) (*phase, error)
	// digest identifies every model output the run produced.
	digest() string
	// sloLimit is the fixed latency limit of slo_frac.
	sloLimit() time.Duration
	close() error
}

type setupFunc func(seed int64, seconds int) (instance, error)

var workloads = map[string]setupFunc{
	"dse-cold":   setupDSECold,
	"sim-replay": setupSimReplay,
	"serve-mix":  setupServeMix,
	"ckks-ops":   setupCKKSOps,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// perLayerUnits lists every per-layer metric with its unit. Each traced
// run reports all of them; a layer the workload never calls reads 0.
var perLayerUnits = map[string]string{
	"workload.build_ms":        "ms",
	"graph.decompose_ms":       "ms",
	"sched.search_ms":          "ms",
	"sched.candidates_per_op":  "count",
	"sched.ns_per_candidate":   "ns",
	"sched.seg_cache_hit_frac": "frac",
	"sched.pruned_frac":        "frac",
	"sched.partial_frac":       "frac",
	"sim.healthy_ms":           "ms",
	"sim.faulted_ms":           "ms",
	"sim.mcycles_per_s":        "Mcycle/s",
	"fault.machine_ms":         "ms",
	"serve.memo_ms":            "ms",
	"serve.search_ms":          "ms",
	"serve.simulate_ms":        "ms",
	"serve.degraded_ms":        "ms",
	"core.search_ms":           "ms",
	"core.simulate_ms":         "ms",
	"core.degraded_ms":         "ms",
	"serve.queue_wait_frac":    "frac",
	"serve.shed_frac":          "frac",
	"bench.memo_hit_frac":      "frac",
	"loadgen.late_p90_ms":      "ms",
	"ckks.mulrelin_ms":         "ms",
	"ckks.rescale_ms":          "ms",
	"ckks.rotate_hoisted_ms":   "ms",
	"ckks.add_ms":              "ms",
	"ntt.forward_us":           "us",
	"runtime.gc_cpu_frac":      "frac",
	"runtime.cpu_per_wall":     "frac",
	"trace.overhead_frac":      "frac",
	"trace.coverage_frac":      "frac",
	"trace.op_ms":              "ms",
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: dse-cold, sim-replay, serve-mix or ckks-ops")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "nominal measuring time; sets the fixed op count")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	time.AfterFunc(hardTimeout, func() {
		fmt.Fprintf(os.Stderr, "perfbench: hard timeout of %v exceeded\n", hardTimeout)
		os.Exit(3)
	})
	res, err := runBench(start, *name, *seed, *seconds, *traceFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func runBench(start time.Time, name string, seed int64, seconds, trace int) (*result, error) {
	setup, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	traced := trace == 1
	goroutines := runtime.NumGoroutine()

	// Set up setupReps times, the first counted from process start; the
	// last instance is the one measured.
	var b instance
	setupS := make([]float64, setupReps)
	for r := range setupS {
		t0 := time.Now()
		if r == 0 {
			t0 = start
		}
		var err error
		if b, err = setup(seed, seconds); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setupS[r] = time.Since(t0).Seconds()
		if r < setupReps-1 {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("%s teardown: %w", name, err)
			}
		}
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	ph, err := b.run(tr)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	live := liveHeapMB()
	dig := b.digest()
	limit := b.sloLimit()
	if err := b.close(); err != nil {
		return nil, fmt.Errorf("%s teardown: %w", name, err)
	}
	if err := waitGoroutines(goroutines); err != nil {
		return nil, err
	}

	n := len(ph.ops)
	var lats []float64
	okN, sloN := 0, 0
	var firstErr error
	for _, o := range ph.ops {
		lats = append(lats, ms(o.lat))
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		okN++
		if o.lat <= limit {
			sloN++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("%s ran no ops", name)
	}
	if firstErr != nil {
		fmt.Printf("first failure: %v\n", firstErr)
	}
	tail := tailPercentile(n)
	fmt.Printf("workload %s seed %d: %d ops, op_tail_ms is p%d of %d samples, slo limit %v\n", name, seed, n, tail, n, limit)
	fmt.Printf("digest %s %s\n", name, dig)

	res := &result{Correct: okN == n, Attempted: n, Failed: n - okN, Metrics: map[string]metric{}}
	if !traced {
		wall := ph.after.wall.Sub(ph.before.wall).Seconds()
		res.Metrics = map[string]metric{
			"ops_per_s":       {float64(okN) / wall, "1/s"},
			"op_p50_ms":       {median(lats), "ms"},
			"op_tail_ms":      {rank(lats, tail), "ms"},
			"ok_frac":         {float64(okN) / float64(n), "frac"},
			"slo_frac":        {float64(sloN) / float64(n), "frac"},
			"alloc_mb_per_op": {float64(ph.after.alloc-ph.before.alloc) / float64(n) / (1 << 20), "MB"},
			"live_heap_mb":    {live, "MB"},
			"setup_s":         {median(setupS), "s"},
		}
		return res, nil
	}

	if err := tr.write(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))); err != nil {
		return nil, err
	}
	layers := ph.layers
	wall := ph.after.wall.Sub(ph.before.wall).Seconds()
	if cpu := ph.after.totalCPU - ph.before.totalCPU; cpu > 0 {
		layers["runtime.gc_cpu_frac"] = (ph.after.gcCPU - ph.before.gcCPU) / cpu
	}
	layers["runtime.cpu_per_wall"] = (ph.after.cpu - ph.before.cpu).Seconds() / wall
	layers["trace.overhead_frac"] = traceOverhead(ph.ops)
	if lt := tr.attribute("op"); lt.roots > 0 {
		layers["trace.coverage_frac"] = lt.coverage("op")
		layers["trace.op_ms"] = ms(lt.total) / float64(lt.roots)
	}
	for _, k := range sortedKeys(perLayerUnits) {
		res.Metrics[k] = metric{layers[k], perLayerUnits[k]}
	}
	for k := range layers {
		if _, ok := perLayerUnits[k]; !ok {
			return nil, fmt.Errorf("%s reported undeclared layer metric %q", name, k)
		}
	}
	return res, nil
}

// waitGoroutines fails the run if goroutines it started outlive it.
// Connection and timer goroutines get a moment to wind down first.
func waitGoroutines(limit int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines outlive the run (started with %d):\n%s", n, limit, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// traceOverhead compares traced with untraced ops on the same inputs:
// the sum over inputs of the median traced latency, over the same sum
// untraced, minus one.
func traceOverhead(ops []opResult) float64 {
	traced, untraced := map[string][]float64{}, map[string][]float64{}
	for _, o := range ops {
		if o.traced {
			traced[o.key] = append(traced[o.key], ms(o.lat))
		} else {
			untraced[o.key] = append(untraced[o.key], ms(o.lat))
		}
	}
	var t, u float64
	for _, k := range sortedKeys(traced) {
		if us, ok := untraced[k]; ok {
			t += median(traced[k])
			u += median(us)
		}
	}
	if u == 0 {
		return 0
	}
	return t/u - 1
}

package sched_test

import (
	"hash/fnv"
	"sync"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/baseline"
	"crophe/internal/parallel"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// statsDelta is the change of the search counters from a to b.
func statsDelta(a, b sched.SearchStats) sched.SearchStats {
	return sched.SearchStats{
		Candidates:  b.Candidates - a.Candidates,
		Pruned:      b.Pruned - a.Pruned,
		CacheHits:   b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
	}
}

// figure9Hashes evaluates every Figure 9 cell's four designs under a pool
// of the given size and returns one hash per schedule, with the search
// counters the evaluations added.
func figure9Hashes(workers int) ([]uint64, sched.SearchStats) {
	prev := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	before := sched.Stats()
	var sums []uint64
	for _, p := range baseline.Pairings() {
		factories := p.WorkloadFactories()
		for _, wl := range baseline.WorkloadNames() {
			for _, d := range p.Designs() {
				s := d.Evaluate(factories[wl])
				h := fnv.New64a()
				hashSchedule(h, s)
				sums = append(sums, h.Sum64()^uint64(s.Rot)<<56^uint64(s.RHyb)<<48)
			}
		}
	}
	return sums, statsDelta(before, sched.Stats())
}

// TestParallelSearchMatchesSerial evaluates all 16 Figure 9 cells × 4
// designs on a one-worker pool, where every candidate and segment is
// searched in order on the caller, and on a four-worker pool, where they
// fan out. The schedules must be bit-identical and the search counters
// must add up to the same totals: one memo miss per distinct segment.
func TestParallelSearchMatchesSerial(t *testing.T) {
	serial, serialStats := figure9Hashes(1)
	par, parStats := figure9Hashes(4)
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("schedule %d (cell %d, design %d) differs between 1 and 4 workers", i, i/4, i%4)
		}
	}
	if serialStats != parStats {
		t.Fatalf("search counters %+v with 1 worker, %+v with 4", serialStats, parStats)
	}
}

// TestSchedulerSharedAcrossGoroutines runs the five rotation candidates
// of a CROPHE design, three times each, concurrently on one Scheduler.
// Every run must equal a serial run on a fresh Scheduler, node names
// included, and the shared memo must search each distinct segment once,
// as a serial pass of the same runs over one Scheduler does. Run it
// under -race.
func TestSchedulerSharedAcrossGoroutines(t *testing.T) {
	d := sched.PaperDesigns(arch.CROPHE64, arch.ARK)[2]
	factory, _ := workload.Lookup("resnet-20", arch.ParamsARK)
	cands := []struct {
		mode workload.RotMode
		r    int
	}{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}, {workload.RotHybrid, 2}, {workload.RotHybrid, 4}, {workload.RotHybrid, 8}}
	const repeats = 3
	ws := make([]*workload.Workload, len(cands))
	want := make([]uint64, len(cands))
	for i, c := range cands {
		ws[i] = d.Prepare(factory(c.mode, c.r))
		h := fnv.New64a()
		hashSchedule(h, sched.New(d.HW, d.Options(0)).Run(ws[i]))
		want[i] = h.Sum64()
	}

	before := sched.Stats()
	one := sched.New(d.HW, d.Options(0))
	for r := 0; r < repeats; r++ {
		for _, w := range ws {
			one.Run(w)
		}
	}
	serialStats := statsDelta(before, sched.Stats())

	before = sched.Stats()
	shared := sched.New(d.HW, d.Options(0))
	got := make([]uint64, len(cands)*repeats)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			h := fnv.New64a()
			hashSchedule(h, shared.Run(ws[k%len(ws)]))
			got[k] = h.Sum64()
		}(k)
	}
	wg.Wait()
	sharedStats := statsDelta(before, sched.Stats())

	for k, sum := range got {
		if sum != want[k%len(ws)] {
			t.Fatalf("concurrent run %d (candidate %v) differs from a serial run", k, cands[k%len(ws)])
		}
	}
	if sharedStats != serialStats {
		t.Fatalf("search counters %+v from concurrent runs, %+v from serial ones", sharedStats, serialStats)
	}
}

package sched

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"crophe/internal/arch"
	"crophe/internal/workload"
)

// Anytime-search contract: a cut search still schedules every operator,
// the same budget cuts at the same candidate on every run, and neither
// deadlines nor cancellation leak goroutines.

func anytimeWorkload() *workload.Workload {
	return workload.Bootstrapping(testParams, workload.RotHybrid, 4)
}

func scheduleFingerprint(s *Schedule) []float64 {
	var fp []float64
	fp = append(fp, s.TimeSec, s.Traffic.DRAM, s.Traffic.SRAM, s.Traffic.NoC)
	for _, seg := range s.Segments {
		fp = append(fp, seg.TimeSec, float64(len(seg.Groups)))
		for _, g := range seg.Groups {
			fp = append(fp, g.TimeSec, float64(len(g.Nodes)))
			for _, n := range g.Nodes {
				fp = append(fp, float64(n.ID))
			}
		}
	}
	return fp
}

func TestAnytimeBudgetStillSchedulesEverything(t *testing.T) {
	w := anytimeWorkload()
	for _, budget := range []int{1, 10, 100, 1000} {
		opt := DefaultOptions(DataflowCROPHE)
		opt.SearchBudget = budget
		res, err := New(arch.CROPHE64, opt).Schedule(context.Background(), w)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for si, seg := range res.Segments {
			want := len(w.Segments[si].G.ComputeNodes())
			got := 0
			for _, g := range seg.Groups {
				got += len(g.Nodes)
			}
			if got != want {
				t.Fatalf("budget %d, %s: scheduled %d of %d nodes", budget, seg.Name, got, want)
			}
		}
		if res.TimeSec <= 0 {
			t.Fatalf("budget %d: non-positive time", budget)
		}
	}
}

func TestAnytimeSmallBudgetIsPartialAndNoWorseUnbounded(t *testing.T) {
	w := anytimeWorkload()
	opt := DefaultOptions(DataflowCROPHE)
	opt.SearchBudget = 5
	cutRes, err := New(arch.CROPHE64, opt).Schedule(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if !cutRes.Partial {
		t.Fatal("tiny budget did not mark the schedule Partial")
	}
	full, err := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Schedule(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("unbounded search marked Partial")
	}
	if full.TimeSec > cutRes.TimeSec {
		t.Fatalf("full search (%g s) worse than cut search (%g s)", full.TimeSec, cutRes.TimeSec)
	}
}

func TestAnytimeDeterministicPerBudget(t *testing.T) {
	// Same config + workload + budget → bit-identical best-so-far
	// schedule, including the group decomposition, on every run.
	w := anytimeWorkload()
	for _, budget := range []int{1, 7, 64, 512} {
		var ref []float64
		for run := 0; run < 3; run++ {
			opt := DefaultOptions(DataflowCROPHE)
			opt.SearchBudget = budget
			res, err := New(arch.CROPHE64, opt).Schedule(context.Background(), w)
			if err != nil {
				t.Fatalf("budget %d run %d: %v", budget, run, err)
			}
			fp := scheduleFingerprint(res)
			if run == 0 {
				ref = fp
				continue
			}
			if len(fp) != len(ref) {
				t.Fatalf("budget %d run %d: fingerprint length %d vs %d", budget, run, len(fp), len(ref))
			}
			for i := range fp {
				if fp[i] != ref[i] {
					t.Fatalf("budget %d run %d: fingerprint diverges at %d: %v vs %v",
						budget, run, i, fp[i], ref[i])
				}
			}
		}
	}
}

func TestBudgetForDeadlineBuckets(t *testing.T) {
	if b := budgetForDeadline(0); b != 1 {
		t.Fatalf("zero deadline budget %d want 1", b)
	}
	if b := budgetForDeadline(-time.Second); b != 1 {
		t.Fatalf("negative deadline budget %d want 1", b)
	}
	// Deadlines in the same power-of-two bucket share a budget...
	a := budgetForDeadline(90 * time.Millisecond)
	b := budgetForDeadline(110 * time.Millisecond)
	if a != b {
		t.Fatalf("neighbouring deadlines map to budgets %d and %d", a, b)
	}
	// ...and longer deadlines never shrink it.
	prev := 0
	for ms := 1; ms <= 4096; ms *= 2 {
		got := budgetForDeadline(time.Duration(ms) * time.Millisecond)
		if got < prev {
			t.Fatalf("budget shrank: %d ms → %d, previous %d", ms, got, prev)
		}
		prev = got
	}
}

func TestAnytimeCancelledContextStillReturnsValidSchedule(t *testing.T) {
	w := anytimeWorkload()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the backstop cuts at the first DP row
	res, err := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Schedule(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("cancelled context did not mark the schedule Partial")
	}
	for si, seg := range res.Segments {
		want := len(w.Segments[si].G.ComputeNodes())
		got := 0
		for _, g := range seg.Groups {
			got += len(g.Nodes)
			if len(g.Nodes) != 1 {
				t.Fatalf("%s: cut-from-start search produced a %d-node group", seg.Name, len(g.Nodes))
			}
		}
		if got != want {
			t.Fatalf("%s: scheduled %d of %d nodes", seg.Name, got, want)
		}
	}
}

func TestAnytimeCancellationLeaksNoGoroutines(t *testing.T) {
	w := anytimeWorkload()
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
		if _, err := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Schedule(ctx, w); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	// Give any stray timer goroutines a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestScheduleRejectsDeadResourceClass(t *testing.T) {
	w := anytimeWorkload()
	cases := []struct {
		name string
		d    arch.Derating
	}{
		{"all PEs failed", arch.Derating{PEs: 0, Lane: 1, NoC: 1, SRAM: 1, DRAM: 1}},
		{"all lanes failed", arch.Derating{PEs: 1, Lane: 0, NoC: 1, SRAM: 1, DRAM: 1}},
		{"HBM fully throttled", arch.Derating{PEs: 1, Lane: 1, NoC: 1, SRAM: 1, DRAM: 0}},
		{"all SRAM banks disabled", arch.Derating{PEs: 1, Lane: 1, NoC: 1, SRAM: 0, DRAM: 1}},
	}
	for _, tc := range cases {
		hw := arch.CROPHE64.Derate(tc.d)
		_, err := New(hw, DefaultOptions(DataflowCROPHE)).Schedule(context.Background(), w)
		if err == nil {
			t.Fatalf("%s: scheduling succeeded on an unusable machine", tc.name)
		}
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: want ErrInfeasible, got %v", tc.name, err)
		}
	}
	// A derated-but-alive machine schedules fine, just slower.
	hw := arch.CROPHE64.Derate(arch.Derating{PEs: 0.5, Lane: 1, NoC: 0.5, SRAM: 0.5, DRAM: 0.5})
	degraded, err := New(hw, DefaultOptions(DataflowCROPHE)).Schedule(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	healthy := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Run(w)
	if degraded.TimeSec < healthy.TimeSec {
		t.Fatalf("half-failed machine faster (%g s) than healthy (%g s)",
			degraded.TimeSec, healthy.TimeSec)
	}
}

func TestRunPanicsOnInfeasibleHW(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run on an unusable machine did not panic")
		}
	}()
	hw := arch.CROPHE64.Clone()
	hw.NumPEs = 0
	New(hw, DefaultOptions(DataflowCROPHE)).Run(anytimeWorkload())
}

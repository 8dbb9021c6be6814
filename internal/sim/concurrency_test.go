package sim

import (
	"sync"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// TestConcurrentRunsShareConfig runs the full schedule+simulate pipeline
// from several goroutines over the same HWConfig and workload. The shared
// inputs are treated as immutable by the scheduler and simulator; this
// test (under -race) is the audit that they actually are, and that
// results stay deterministic.
func TestConcurrentRunsShareConfig(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	opt := sched.DefaultOptions(sched.DataflowCROPHE)

	ref, err := scheduleAndSimulate(arch.CROPHE64, opt, w)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 6
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = scheduleAndSimulate(arch.CROPHE64, opt, w)
		}(i)
	}
	wg.Wait()

	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if results[i].Cycles != ref.Cycles || results[i].TimeSec != ref.TimeSec {
			t.Fatalf("worker %d: nondeterministic result %v cycles vs %v",
				i, results[i].Cycles, ref.Cycles)
		}
	}
}

// TestConcurrentMixedDataflows schedules different dataflows against the
// same shared workload simultaneously (the schedule-sweep usage pattern).
func TestConcurrentMixedDataflows(t *testing.T) {
	w := workload.HELR(arch.ParamsARK, workload.RotHoisted, 0)
	flows := []sched.Dataflow{sched.DataflowMAD, sched.DataflowCROPHE}

	results := make([]*Result, len(flows))
	errs := make([]error, len(flows))
	var wg sync.WaitGroup
	for i, d := range flows {
		wg.Add(1)
		go func(i int, d sched.Dataflow) {
			defer wg.Done()
			results[i], errs[i] = scheduleAndSimulate(arch.CROPHE64, sched.DefaultOptions(d), w)
		}(i, d)
	}
	wg.Wait()

	for i := range flows {
		if errs[i] != nil {
			t.Fatalf("dataflow %d: %v", i, errs[i])
		}
		if results[i].Cycles <= 0 {
			t.Fatalf("dataflow %d produced no cycles", i)
		}
	}
}

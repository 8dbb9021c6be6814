package fault

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
	"crophe/internal/parallel"
)

// fakeRunner is a deterministic stand-in for the simulator: time grows
// with the fault count, so the sweep shape is stable across runs.
func fakeRunner(m *Machine) (Outcome, error) {
	return Outcome{TimeSec: 1e-3 * float64(1+m.Plan.FaultCount())}, nil
}

// TestRunSweepRejectsTooFewSteps: a sweep needs a healthy rung and at
// least one faulted rung; fewer steps is an error, not a silent clamp.
func TestRunSweepRejectsTooFewSteps(t *testing.T) {
	for _, steps := range []int{-1, 0, 1} {
		if _, err := RunSweep(context.Background(), arch.CROPHE64, 1, steps, fakeRunner); err == nil {
			t.Errorf("steps=%d accepted", steps)
		}
	}
}

// TestRunSweepModesAgree: a sweep returns exactly the same result at
// pool size 1 (a sequential loop) and 4 (concurrent rungs).
func TestRunSweepModesAgree(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 23, 5
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	var results []*SweepResult
	for _, size := range []int{1, 4} {
		parallel.SetWorkers(size)
		res, err := RunSweep(context.Background(), hw, seed, steps, fakeRunner)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("pool sizes 1 and 4 return different sweep results")
	}
}

// TestSweepPoolSizesAgree: the one sweep executor returns the identical
// result at pool size 1 (a plain sequential loop) and 4 (concurrent
// rungs), even when later rungs finish first. At size 4, rung 0 holds
// until rungs 1..3 have finished, which only concurrent rungs can
// satisfy.
func TestSweepPoolSizesAgree(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE64
	const seed, steps, wave = 23, 8, 4
	stepOf := map[Spec]int{}
	for i := 0; i < steps; i++ {
		stepOf[sweepSpec(hw, maxSweepFrac*float64(i)/float64(steps-1))] = i
	}
	if len(stepOf) != steps {
		t.Fatalf("rung specs not distinct: %d of %d", len(stepOf), steps)
	}

	sweep := func(size int) *SweepResult {
		prev := parallel.Workers()
		parallel.SetWorkers(size)
		defer parallel.SetWorkers(prev)

		finished := make(chan struct{}, wave-1) // one send per rung 1..wave-1
		runner := func(m *Machine) (Outcome, error) {
			switch step := stepOf[m.Plan.Spec]; {
			case step == 0 && size > 1:
				for k := 1; k < wave; k++ {
					select {
					case <-finished:
					case <-time.After(5 * time.Second):
						t.Errorf("size %d: rung 0 never saw rungs 1..%d finish (rungs not concurrent)", size, wave-1)
						return fakeRunner(m)
					}
				}
			case step > 0 && step < wave:
				defer func() { finished <- struct{}{} }()
			}
			return fakeRunner(m)
		}

		res, err := RunSweep(context.Background(), hw, seed, steps, runner)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		return res
	}

	serial, concurrent := sweep(1), sweep(wave)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("pool sizes disagree:\n size 1: %+v\n size %d: %+v", serial, wave, concurrent)
	}
}

// TestRunSweepStopsBetweenRungs: a context cancelled while rung 2 runs
// stops the sweep before a later rung starts, and RunSweep returns an
// error wrapping context.Canceled, never a partial curve. At pool size 1
// exactly rungs 0..2 run. At size 4 the rungs in flight beside rung 2
// hold until it cancels and then finish, so at most rungs 0..5 run.
func TestRunSweepStopsBetweenRungs(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE64
	const seed, steps, cancelAt = 29, 8, 2
	stepOf := map[Spec]int{}
	for i := 0; i < steps; i++ {
		stepOf[sweepSpec(hw, maxSweepFrac*float64(i)/float64(steps-1))] = i
	}
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, size := range []int{1, 4} {
		parallel.SetWorkers(size)
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		var ran []int
		runner := func(m *Machine) (Outcome, error) {
			step := stepOf[m.Plan.Spec]
			mu.Lock()
			ran = append(ran, step)
			mu.Unlock()
			switch {
			case step == cancelAt:
				cancel()
			case step > cancelAt:
				<-ctx.Done()
			}
			return fakeRunner(m)
		}
		res, err := RunSweep(ctx, hw, seed, steps, runner)
		cancel()
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("size %d: cancelled sweep = %v, %v; want nil and a context.Canceled error", size, res, err)
		}
		if !strings.Contains(err.Error(), "interrupted before step") {
			t.Fatalf("size %d: error %q does not name the step the sweep stopped before", size, err)
		}
		if size == 1 && !reflect.DeepEqual(ran, []int{0, 1, 2}) {
			t.Fatalf("size 1: rungs %v ran; want [0 1 2]", ran)
		}
		if len(ran) > cancelAt+size {
			t.Fatalf("size %d: rungs %v ran; want at most %d", size, ran, cancelAt+size)
		}
	}
}

package fault

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
	"crophe/internal/parallel"
)

// TestRunSweepRejectsTooFewSteps: a sweep needs a healthy rung and at
// least one faulted rung; fewer steps is an error, not a silent clamp.
func TestRunSweepRejectsTooFewSteps(t *testing.T) {
	for _, steps := range []int{-1, 0, 1} {
		if _, err := RunSweep(context.Background(), arch.CROPHE64, 1, steps, fakeRunner); err == nil {
			t.Errorf("steps=%d accepted", steps)
		}
	}
}

// TestRunSweepModesAgree: a journaled sweep returns exactly the result of
// an unjournaled one, at pool size 1 and 4 — committing rungs to the
// journal never changes what the sweep computes.
func TestRunSweepModesAgree(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 23, 5
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	for _, size := range []int{1, 4} {
		parallel.SetWorkers(size)
		plain, err := RunSweep(context.Background(), hw, seed, steps, fakeRunner)
		if err != nil {
			t.Fatal(err)
		}
		var journaled []SweepPoint
		withJournal, err := RunSweep(context.Background(), hw, seed, steps, fakeRunner,
			WithJournal(func(pt SweepPoint) { journaled = append(journaled, pt) }))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withJournal) {
			t.Fatalf("size %d: journaled and unjournaled sweep results differ", size)
		}
		if !reflect.DeepEqual(journaled, plain.Points) {
			t.Fatalf("size %d: journal saw %+v, want the sweep's points %+v", size, journaled, plain.Points)
		}
	}
}

// TestSweepPoolSizesAgree: the one sweep executor returns the identical
// result at pool size 1 (a plain sequential loop) and 4 (concurrent
// rungs), and the journal hook sees steps 0..n-1 strictly in order and
// never concurrently — even when later rungs finish first. At size 4,
// rung 0 holds until rungs 1..3 have finished, which only concurrent
// rungs can satisfy.
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

		var observing atomic.Bool
		var observed []int
		res, err := RunSweep(context.Background(), hw, seed, steps, runner, WithJournal(func(pt SweepPoint) {
			if !observing.CompareAndSwap(false, true) {
				t.Errorf("size %d: observe called concurrently", size)
			}
			observed = append(observed, pt.Step)
			observing.Store(false)
		}))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for i, s := range observed {
			if s != i {
				t.Fatalf("size %d: observe saw steps %v, want 0..%d in order", size, observed, steps-1)
			}
		}
		if len(observed) != steps {
			t.Fatalf("size %d: observe saw %d steps, want %d", size, len(observed), steps)
		}
		return res
	}

	serial, concurrent := sweep(1), sweep(wave)
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatalf("pool sizes disagree:\n size 1: %+v\n size %d: %+v", serial, wave, concurrent)
	}
}

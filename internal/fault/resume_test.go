package fault

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
)

// fakeRunner is a deterministic stand-in for the simulator: time grows
// with the fault count, so the sweep shape is stable across runs.
func fakeRunner(m *Machine) (Outcome, error) {
	return Outcome{TimeSec: 1e-3 * float64(1+m.Plan.FaultCount())}, nil
}

// TestResumeSweepMatchesSweep: the sequential resumable mode must produce
// exactly the result of the parallel mode.
func TestResumeSweepMatchesSweep(t *testing.T) {
	leakcheck.Check(t)
	const seed, steps = 17, 5
	want, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, fakeRunner, WithParallel())
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	got, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, fakeRunner)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("sequential sweep differs from parallel:\n got %+v\nwant %+v", got, want)
	}
}

// TestResumeSweepSkipsDoneSteps: journaled points are spliced in verbatim
// and their rungs are not re-run; the overall result is identical to an
// uninterrupted sweep.
func TestResumeSweepSkipsDoneSteps(t *testing.T) {
	leakcheck.Check(t)
	const seed, steps = 23, 6
	full, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, fakeRunner)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}

	done := map[int]SweepPoint{
		0: full.Points[0],
		1: full.Points[1],
		2: full.Points[2],
	}
	ran := map[int]bool{}
	counting := func(m *Machine) (Outcome, error) {
		ran[m.Plan.FaultCount()] = true
		return fakeRunner(m)
	}
	var observed []int
	resumed, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, counting,
		WithResume(done), WithJournal(func(pt SweepPoint) { observed = append(observed, pt.Step) }))
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed sweep differs from uninterrupted run:\n got %+v\nwant %+v", resumed, full)
	}
	if len(ran) != steps-len(done) {
		t.Errorf("runner executed %d rungs, want %d (done steps must be skipped)", len(ran), steps-len(done))
	}
	if want := []int{3, 4, 5}; !reflect.DeepEqual(observed, want) {
		t.Errorf("observe saw steps %v, want %v", observed, want)
	}
}

// TestResumeSweepStopsBetweenRungs: a cancelled context aborts the sweep
// before the next rung starts, never mid-rung, and already-observed
// points stay intact.
func TestResumeSweepStopsBetweenRungs(t *testing.T) {
	leakcheck.Check(t)
	const seed, steps = 29, 6
	ctx, cancel := context.WithCancel(context.Background())
	var observed []SweepPoint
	cancelAfter := 2
	runner := func(m *Machine) (Outcome, error) {
		return fakeRunner(m)
	}
	_, err := RunSweep(ctx, arch.CROPHE64, seed, steps, runner, WithJournal(func(pt SweepPoint) {
		observed = append(observed, pt)
		if len(observed) == cancelAfter {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", err)
	}
	if len(observed) != cancelAfter {
		t.Fatalf("observed %d points after cancellation, want exactly %d", len(observed), cancelAfter)
	}

	// Resuming from the observed points completes identically to an
	// uninterrupted sweep — the crash-safety contract.
	done := map[int]SweepPoint{}
	for _, pt := range observed {
		done[pt.Step] = pt
	}
	resumed, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, runner, WithResume(done))
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	full, err := RunSweep(context.Background(), arch.CROPHE64, seed, steps, runner)
	if err != nil {
		t.Fatalf("uninterrupted sweep: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed-after-cancel sweep differs from uninterrupted run")
	}
}

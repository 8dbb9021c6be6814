package fault

import (
	"context"
	"reflect"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
)

// TestRunSweepOptionValidation pins the option-combination errors.
func TestRunSweepOptionValidation(t *testing.T) {
	observe := func(SweepPoint) {}
	if _, err := RunSweep(context.Background(), arch.CROPHE36, 1, 4, fakeRunner, WithParallel(), WithJournal(observe)); err == nil {
		t.Fatal("parallel + journal accepted")
	}
}

// TestRunSweepModesAgree: sequential (default) and parallel execution
// produce the identical result — the determinism the checkpoint
// journal's resume contract rests on.
func TestRunSweepModesAgree(t *testing.T) {
	leakcheck.Check(t)
	hw := arch.CROPHE36
	const seed, steps = 23, 5
	seq, err := RunSweep(context.Background(), hw, seed, steps, fakeRunner)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunSweep(context.Background(), hw, seed, steps, fakeRunner, WithParallel())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("sequential and parallel sweep results differ")
	}
}

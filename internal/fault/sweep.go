package fault

import (
	"context"
	"fmt"
	"strings"

	"crophe/internal/arch"
	"crophe/internal/parallel"
)

// Outcome is what a Runner reports for one degraded machine: the
// simulated (or scheduled) task time and whether the anytime search was
// cut before finishing.
type Outcome struct {
	TimeSec float64
	Cycles  float64
	Partial bool
}

// Runner executes a workload on one degraded machine. The fault package
// deliberately does not know how — crophe.RunResilienceSweep injects
// the façade's one schedule→simulate path (SimulateWorkloadContext with
// WithFaults) here, keeping the dependency arrow pointing one way. A
// returned error marks the rung infeasible.
type Runner func(m *Machine) (Outcome, error)

// SweepPoint is one rung of a resilience sweep.
type SweepPoint struct {
	Step       int
	FracFailed float64 // nominal fraction of each resource class failed
	Spec       Spec
	FaultCount int
	Outcome    Outcome
	// Err is the flattened error for infeasible rungs ("" when the rung
	// ran): the sweep keeps going so the report shows where the machine
	// stops being schedulable.
	Err string
}

// Retained is the throughput retained versus the healthy baseline
// (1 = full speed, 0 = infeasible).
func (pt *SweepPoint) Retained(baseline float64) float64 {
	if pt.Err != "" || pt.Outcome.TimeSec <= 0 || baseline <= 0 {
		return 0
	}
	r := baseline / pt.Outcome.TimeSec
	if r > 1 {
		r = 1
	}
	return r
}

// SweepResult is a full resilience sweep: escalating fault loads under
// one seed, all points generated from nested plans so throughput
// degrades monotonically in the fault count.
type SweepResult struct {
	HW       string
	Seed     int64
	Baseline float64 // healthy TimeSec (the step-0 outcome)
	Points   []SweepPoint
}

// maxSweepFrac bounds how much of each resource class the final rung
// fails; beyond ~half the machine the interesting transitions (graceful
// → infeasible) have already happened.
const maxSweepFrac = 0.5

// sweepSpec scales a fault load to a fraction of each resource class.
func sweepSpec(hw *arch.HWConfig, frac float64) Spec {
	meshW, meshH := hw.SimMesh()
	links := len(meshLinks(meshW, meshH))
	s := Spec{
		FailedRows: int(frac * float64(meshH-1)),
		DeadLinks:  int(frac * float64(links) / 4),
		SlowLinks:  int(frac * float64(links) / 4),
		SlowFactor: 0.5,
		DeadBanks:  int(frac * float64(bufBanks-1)),
		HBMFrac:    1 - frac/2,
		LaneFrac:   frac / 2,
		FlipRate:   frac / 4,
	}
	if s.SlowLinks == 0 {
		s.SlowFactor = 0
	}
	return s
}

// RunSweep is the single entry point for resilience sweeps: steps rungs
// (at least 2) of escalating fault load (rung 0 healthy, the last rung at
// maxSweepFrac of every resource class), each instantiated under the
// same seed so rung k's fault set nests inside rung k+1's.
//
// Rungs are claimed in step order (parallel.ClaimEach) and run on the
// shared internal/parallel pool (the caller plus any free tokens; at pool
// size 1, a plain sequential loop), each landing in its index-addressed
// slot. Every rung is deterministic per (hw, seed, step) and never sees a
// cancellable context, so the result does not depend on the pool size.
// ctx is checked before each rung starts; no rung is claimed after one
// fails or after cancellation.
//
// Infeasible rungs are recorded in their point, not returned as errors;
// RunSweep itself fails only on a step count below 2, plan-generation
// bugs (the first in step order), or cancellation before every rung ran
// (wrapping ctx.Err(), seed attached).
func RunSweep(ctx context.Context, hw *arch.HWConfig, seed int64, steps int, run Runner) (*SweepResult, error) {
	if steps < 2 {
		return nil, fmt.Errorf("fault: sweep needs at least 2 steps (a healthy rung and a faulted one), got %d", steps)
	}
	res := &SweepResult{HW: hw.Name, Seed: seed, Points: make([]SweepPoint, steps)}
	errs := make([]error, steps)
	ran := make([]bool, steps)
	parallel.ClaimEach(parallel.Workers(), steps, func(i int) bool {
		if ctx.Err() != nil {
			return false
		}
		res.Points[i], errs[i] = runStep(hw, seed, steps, i, run)
		ran[i] = true
		return errs[i] == nil
	})
	for i := range ran {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if !ran[i] {
			return nil, fmt.Errorf("fault: sweep interrupted before step %d (seed %d): %w", i, seed, ctx.Err())
		}
	}
	if res.Points[0].Err == "" {
		res.Baseline = res.Points[0].Outcome.TimeSec
	}
	return res, nil
}

// runStep generates, instantiates and runs one sweep rung. Infeasible
// machines and runner failures are recorded in the point; only
// plan-generation bugs surface as errors.
func runStep(hw *arch.HWConfig, seed int64, steps, i int, run Runner) (SweepPoint, error) {
	frac := maxSweepFrac * float64(i) / float64(steps-1)
	spec := sweepSpec(hw, frac)
	pt := SweepPoint{Step: i, FracFailed: frac, Spec: spec}
	plan, err := Generate(hw, spec, seed)
	if err != nil {
		return pt, err
	}
	pt.FaultCount = plan.FaultCount()
	m, err := NewMachine(hw, plan)
	if err != nil {
		pt.Err = err.Error()
		return pt, nil
	}
	out, err := run(m)
	if err != nil {
		pt.Err = err.Error()
		return pt, nil
	}
	pt.Outcome = out
	return pt, nil
}

// String renders the resilience report: throughput retained versus
// fraction of resources failed.
func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "resilience sweep: %s, seed %d\n", r.HW, r.Seed)
	fmt.Fprintf(&b, "%-8s %-8s %-12s %-10s %-8s %s\n",
		"failed", "faults", "time(ms)", "retained", "partial", "spec")
	for i := range r.Points {
		pt := &r.Points[i]
		if pt.Err != "" {
			fmt.Fprintf(&b, "%-8s %-8d %-12s %-10s %-8s %s\n",
				fmt.Sprintf("%.0f%%", pt.FracFailed*100), pt.FaultCount,
				"-", "infeasible", "-", pt.Err)
			continue
		}
		fmt.Fprintf(&b, "%-8s %-8d %-12.3f %-10s %-8v %s\n",
			fmt.Sprintf("%.0f%%", pt.FracFailed*100), pt.FaultCount,
			pt.Outcome.TimeSec*1e3,
			fmt.Sprintf("%.1f%%", pt.Retained(r.Baseline)*100),
			pt.Outcome.Partial, pt.Spec.String())
	}
	return b.String()
}

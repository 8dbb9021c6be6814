package crophe

import (
	"context"
	"fmt"
	"time"

	"crophe/internal/fault"
	"crophe/internal/sched"
	"crophe/internal/sim"
)

// Fault-injection and graceful-degradation surface: deterministic,
// seed-driven hardware faults (failed PE rows, dead or slowed mesh
// links, disabled SRAM banks, throttled HBM, transient stalls), degraded
// scheduling and simulation, and resilience sweeps. See the "Fault model
// & graceful degradation" section of DESIGN.md.

// Fault types.
type (
	// FaultSpec declares how much of each resource class to fail; parse
	// one from a string with ParseFaultSpec.
	FaultSpec = fault.Spec
	// FaultPlan is a spec instantiated under a seed: the concrete rows,
	// links and banks that failed.
	FaultPlan = fault.Plan
	// FaultMachine couples a hardware configuration with a fault plan
	// and serves its degraded effective view.
	FaultMachine = fault.Machine
	// ResilienceSweep is a full escalating-fault sweep result.
	ResilienceSweep = fault.SweepResult
	// ResiliencePoint is one rung of a resilience sweep.
	ResiliencePoint = fault.SweepPoint
)

// Fault error sentinels, matched with errors.Is.
var (
	// ErrMachineDead reports a fault plan that leaves no schedulable
	// machine (all rows failed, mesh partitioned, zero bandwidth).
	ErrMachineDead = fault.ErrMachineDead
	// ErrInfeasible reports a hardware view with a dead resource class.
	ErrInfeasible = sched.ErrInfeasible
)

// ParseFaultSpec parses the -faults grammar:
//
//	rows:N,lanes:F,links:N,slow:N@F,banks:N,hbm:F,stalls:N@D,stallp:F
//
// "" and "healthy" parse to the zero (healthy) spec.
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.ParseSpec(s) }

// NewFaultMachine instantiates a fault spec on hw under a deterministic
// seed and validates that the degraded machine can still run (an
// unschedulable machine is an error matching ErrMachineDead).
func NewFaultMachine(hw *HWConfig, spec FaultSpec, seed int64) (*FaultMachine, error) {
	plan, err := fault.Generate(hw, spec, seed)
	if err != nil {
		return nil, err
	}
	return fault.NewMachine(hw, plan)
}

// WithFaults degrades the simulated chip per the machine's fault plan.
func WithFaults(m *FaultMachine) SimOption { return sim.WithFaults(m) }

// recoverFaultPanic converts an invariant violation escaping a degraded
// run into a returned error carrying the fault seed — the one number
// needed to replay the failure deterministically.
func recoverFaultPanic(seed int64, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("crophe: invariant violation under fault seed %d: %v", seed, r)
	}
}

// SimulateDegraded schedules and simulates a workload on a degraded
// machine: SimulateWorkloadContext with DegradedDesign(m.Base), no
// deadline and WithFaults(m). The context bounds the anytime schedule
// search: on cancellation the best-so-far valid schedule is used
// (Partial set on the returned Schedule), never an error. A panic
// escaping the degraded stack is recovered into an error carrying the
// fault seed.
func SimulateDegraded(ctx context.Context, m *FaultMachine, w *Workload, opts ...SimOption) (*SimResult, *Schedule, error) {
	return SimulateWorkloadContext(ctx, DegradedDesign(m.Base), w, 0, append(opts[:len(opts):len(opts)], WithFaults(m))...)
}

// SweepOption configures RunResilienceSweepWith; build them with the
// SweepWith* constructors below (aliased from internal/fault).
type SweepOption = fault.SweepOption

// SweepWithJournal hands each freshly computed rung to observe serially
// and in step order, as the completed prefix grows — the serving layer's
// checkpoint-journaling hook.
func SweepWithJournal(observe func(ResiliencePoint)) SweepOption { return fault.WithJournal(observe) }

// SweepWithResume splices previously journaled rungs (keyed by step)
// into the result instead of re-running them.
func SweepWithResume(done map[int]ResiliencePoint) SweepOption { return fault.WithResume(done) }

// RunResilienceSweepWith is the single option-based resilience-sweep
// entry point: it degrades hw over steps escalating fault rungs (seeded,
// bit-deterministic) and reports throughput retained at each rung, with
// options selecting journaling and resume. Rungs run concurrently on the
// shared worker pool (see internal/fault.RunSweep for the contract).
//
// deadline bounds each rung's schedule search via the deterministic
// anytime budget; 0 leaves the search unbounded. Each rung schedules
// under an uncancellable context — ctx is consulted only before a rung
// starts and before it is committed — so every completed rung is
// deterministic per (hw, seed, step, steps, deadline bucket): sweeps
// interrupted and resumed produce reports byte-identical to one
// uninterrupted run. Each rung is one SimulateWorkloadContext call with
// DegradedDesign(hw) and WithFaults, so a panic escaping a rung becomes
// that rung's seed-tagged Err; one escaping the sweep itself is
// recovered into the returned error, tagged with the seed.
func RunResilienceSweepWith(ctx context.Context, hw *HWConfig, w *Workload, seed int64, steps int, deadline time.Duration,
	opts ...SweepOption) (sw *ResilienceSweep, err error) {
	defer recoverFaultPanic(seed, &err)
	d := DegradedDesign(hw)
	run := func(m *FaultMachine) (fault.Outcome, error) {
		res, s, err := SimulateWorkloadContext(context.Background(), d, w, deadline, WithFaults(m))
		if err != nil {
			return fault.Outcome{}, err
		}
		return fault.Outcome{TimeSec: res.TimeSec, Cycles: res.Cycles, Partial: s.Partial}, nil
	}
	return fault.RunSweep(ctx, hw, seed, steps, run, opts...)
}

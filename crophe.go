// Package crophe is the public facade of the CROPHE reproduction: a
// hardware–software co-design for cross-operator dataflow optimisation on
// fully homomorphic encryption accelerators (HPCA 2026).
//
// The package re-exports the main entry points of the internal modules:
//
//   - CKKS — the functional RNS-CKKS library (encode, encrypt, HAdd,
//     HMult, HRot, rescale, bootstrapping kernels);
//   - Workloads — operator-graph generators for the paper's benchmarks;
//   - Scheduler — the CROPHE cross-operator dataflow search plus the MAD
//     baseline policy;
//   - Simulator — the cycle-level accelerator model;
//   - Experiments — generators for every table and figure of the paper;
//   - Telemetry — the cycle-level observability layer (span/counter
//     collection and Chrome-trace export).
//
// Quick start (compile-checked as Example in crophe's example tests):
//
//	design := crophe.CROPHEDesign(crophe.HWCROPHE64)
//	sched := design.Evaluate(crophe.BootstrappingWorkload(crophe.ParamsARK))
//	fmt.Printf("bootstrapping: %.3f ms\n", sched.TimeSec*1e3)
//
// Cycle simulation with telemetry (see ExampleSimulateWorkload):
//
//	tel := crophe.NewTelemetry()
//	w := crophe.BootstrappingWorkload(crophe.ParamsARK)(crophe.RotHoisted, 0)
//	res, err := crophe.SimulateWorkload(crophe.HWCROPHE64, w, crophe.WithTelemetry(tel))
//	// res.PerSegment is ordered; tel.WriteChromeTraceFile("out.json")
//	// exports a Perfetto-loadable trace.
package crophe

import (
	"context"
	"fmt"
	"time"

	"crophe/internal/arch"
	"crophe/internal/bench"
	"crophe/internal/ckks"
	"crophe/internal/sched"
	"crophe/internal/sim"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// Re-exported CKKS types.
type (
	// CKKSParameters fixes a CKKS instance.
	CKKSParameters = ckks.Parameters
	// Ciphertext is a CKKS ciphertext.
	Ciphertext = ckks.Ciphertext
	// Encoder maps complex vectors to plaintexts.
	Encoder = ckks.Encoder
	// Evaluator executes homomorphic operations.
	Evaluator = ckks.Evaluator
	// KeyGenerator creates key material.
	KeyGenerator = ckks.KeyGenerator
)

// NewTestCKKSParameters builds a small functional parameter set
// (logN, levels, alpha).
func NewTestCKKSParameters(logN, levels, alpha int) (*CKKSParameters, error) {
	return ckks.TestParameters(logN, levels, alpha)
}

// Hardware configurations of Table I.
var (
	HWCROPHE64 = arch.CROPHE64
	HWCROPHE36 = arch.CROPHE36
	HWBTS      = arch.BTS
	HWARK      = arch.ARK
	HWSHARP    = arch.SHARP
	HWCLPlus   = arch.CLPlus
)

// Parameter sets of Table III.
var (
	ParamsBTS   = arch.ParamsBTS
	ParamsARK   = arch.ParamsARK
	ParamsSHARP = arch.ParamsSHARP
	ParamsCL    = arch.ParamsCL
)

// Scheduling types.
type (
	// Design is one evaluated design point (hardware + policy + flags).
	Design = sched.Design
	// Schedule is a scheduling result.
	Schedule = sched.Schedule
	// HWConfig is a hardware configuration.
	HWConfig = arch.HWConfig
	// ParamSet is a CKKS parameter set for workload generation.
	ParamSet = arch.ParamSet
	// Workload is an operator-graph benchmark.
	Workload = workload.Workload
	// WorkloadFactory builds a workload per rotation structure.
	WorkloadFactory = sched.WorkloadFactory
	// SimResult is a cycle-simulation result.
	SimResult = sim.Result
	// SegmentCycles is one ordered per-segment entry of SimResult.
	SegmentCycles = sim.SegmentCycles
	// SimOption configures the cycle simulator (telemetry, topology).
	SimOption = sim.Option
	// RotMode selects the rotation structure a workload is generated
	// under.
	RotMode = workload.RotMode
)

// Rotation structures (Table III / §V-B).
const (
	RotMinKS   = workload.RotMinKS
	RotHoisted = workload.RotHoisted
	RotHybrid  = workload.RotHybrid
)

// Telemetry types: a Telemetry collector gathers cycle-level spans and
// counters during scheduling and simulation; a nil *Telemetry is valid
// and disabled (zero-cost).
type (
	// Telemetry is the span/counter collector of the observability layer.
	Telemetry = telemetry.Collector
	// TelemetrySpan is one busy interval of a modeled resource.
	TelemetrySpan = telemetry.Span
	// TelemetryCounter is one aggregated named counter.
	TelemetryCounter = telemetry.Counter
)

// NewTelemetry returns an enabled, empty collector.
func NewTelemetry() *Telemetry { return telemetry.New() }

// WithTelemetry attaches a collector to the cycle simulator.
func WithTelemetry(c *Telemetry) SimOption { return sim.WithTelemetry(c) }

// WithMeshOverride simulates on a w×h PE mesh regardless of the hardware
// configuration's native topology.
func WithMeshOverride(w, h int) SimOption { return sim.WithMeshOverride(w, h) }

// CROPHEDesign returns the full CROPHE design point (fine-grained
// dataflow + NTT decomposition + hybrid rotation) on the given hardware.
func CROPHEDesign(hw *HWConfig) Design {
	return Design{
		Name: hw.Name, HW: hw,
		Dataflow: sched.DataflowCROPHE, NTTDec: true, HybridRot: true,
	}
}

// MADDesign returns the prior-work MAD policy on the given hardware.
func MADDesign(hw *HWConfig) Design {
	return Design{Name: hw.Name + "+MAD", HW: hw, Dataflow: sched.DataflowMAD}
}

// DegradedDesign is the design every degraded run, resilience sweep and
// SimulateWorkload schedules: the CROPHE dataflow on the graph as given,
// without the NTT rewrite or hybrid rotation.
func DegradedDesign(hw *HWConfig) Design {
	return Design{Name: hw.Name, HW: hw, Dataflow: sched.DataflowCROPHE}
}

// BootstrappingWorkload returns the bootstrapping benchmark factory. Like
// every workload.Lookup factory it builds each distinct segment graph once.
func BootstrappingWorkload(p ParamSet) WorkloadFactory {
	f, _ := workload.Lookup("bootstrapping", p)
	return f
}

// HELRWorkload returns the HELR1024 benchmark factory, sharing segment
// graphs across calls as BootstrappingWorkload does.
func HELRWorkload(p ParamSet) WorkloadFactory {
	f, _ := workload.Lookup("helr1024", p)
	return f
}

// ResNetWorkload returns the encrypted ResNet benchmark factory for any
// layer count, sharing segment graphs across calls as
// BootstrappingWorkload does.
func ResNetWorkload(p ParamSet, layers int) WorkloadFactory {
	return workload.ResNetFactory(p, layers)
}

// LookupHW maps a hardware name ("crophe64", "crophe36", "bts", "ark",
// "sharp", "cl" or "cl+") to its Table I configuration.
func LookupHW(name string) (*HWConfig, bool) { return arch.Lookup(name) }

// DefaultParamsFor returns the CKKS parameter set a hardware
// configuration natively evaluates under (the Table III pairing; the
// homogeneous CROPHE chips pick by word width).
func DefaultParamsFor(hw *HWConfig) ParamSet { return arch.ParamsFor(hw) }

// LookupWorkload builds the named benchmark workload ("bootstrapping"/
// "boot", "helr1024"/"helr", "resnet-20"/"resnet20", "resnet-110"/
// "resnet110") under parameter set p and rotation mode m.
func LookupWorkload(name string, p ParamSet, m RotMode) (*Workload, bool) {
	factory, ok := workload.Lookup(name, p)
	if !ok {
		return nil, false
	}
	return factory(m, 0), true
}

// ScheduleWorkload schedules w on the design point with the anytime
// search bounded two ways: deadline (when positive) sets the
// deterministic candidate budget, and ctx cancellation is the wall-clock
// backstop. An expiring budget or context yields a valid best-so-far
// schedule flagged Partial, never an error — the serving layer's
// deadline-propagation contract. The design's options and graph rewrites
// come from Design.Options and Design.Prepare, as in Design.Evaluate.
func ScheduleWorkload(ctx context.Context, d Design, w *Workload, deadline time.Duration) (*Schedule, error) {
	return sched.New(d.HW, d.Options(deadline)).Schedule(ctx, d.Prepare(w))
}

// SimulateWorkloadContext is the one path that schedules and then
// simulates: it schedules w on the design under ctx/deadline (anytime,
// like ScheduleWorkload), simulates the chosen schedule, and returns both
// so callers can surface the Partial marker. A collector attached with
// WithTelemetry also receives the search counters (sched/*).
//
// With WithFaults(m) the run is degraded (DESIGN.md, "Fault model"): the
// search composes groups on m.Base, which must be d.HW, and prices them
// on m.EffectiveHW(), and the simulator runs the faulted chip. Errors,
// and panics escaping the degraded stack, become errors carrying the
// fault seed.
func SimulateWorkloadContext(ctx context.Context, d Design, w *Workload, deadline time.Duration, opts ...SimOption) (res *SimResult, s *Schedule, err error) {
	e := sim.New(d.HW, opts...)
	search := sched.New(d.HW, d.Options(deadline)).WithTelemetry(e.Telemetry())
	if m := e.Faults(); m != nil {
		seed := m.Plan.Seed
		if d.HW != m.Base {
			return nil, nil, fmt.Errorf("crophe: design hardware %s is not the fault machine's %s (fault seed %d)",
				d.HW.Name, m.Base.Name, seed)
		}
		defer recoverFaultPanic(seed, &err)
		defer func() {
			if err != nil {
				err = fmt.Errorf("crophe: degraded run (fault seed %d): %w", seed, err)
			}
		}()
		search = search.WithPricing(m.EffectiveHW())
	}
	w = d.Prepare(w)
	if s, err = search.Schedule(ctx, w); err != nil {
		return nil, nil, err
	}
	if res, err = e.SimulateSchedule(w, s); err != nil {
		return nil, nil, err
	}
	return res, s, nil
}

// MemoizedSchedule is ScheduleWorkload(context.Background(), d, w, 0)
// through the process-global schedule cache: identical concurrent
// requests coalesce (single-flight) and repeats are cache hits; cached
// reports which. Only full-fidelity schedules belong here —
// deadline-bounded partial schedules must go through ScheduleWorkload,
// as their shape depends on the budget. workloadKey must uniquely
// identify w.
func MemoizedSchedule(d Design, workloadKey string, w *Workload) (s *Schedule, cached bool) {
	return bench.Memoized(d, workloadKey, func() *Schedule {
		return sched.New(d.HW, d.Options(0)).Run(d.Prepare(w))
	})
}

// ScheduleMemoStats re-exports the schedule-cache counters (hits, misses,
// evictions, size, capacity) for observability endpoints.
func ScheduleMemoStats() bench.MemoStats { return bench.ScheduleMemoStats() }

// Simulate runs the cycle-level simulator on a schedule. Options attach
// telemetry or override the mesh topology.
func Simulate(hw *HWConfig, w *Workload, s *Schedule, opts ...SimOption) (*SimResult, error) {
	return sim.New(hw, opts...).SimulateSchedule(w, s)
}

// SimulateWorkload schedules w with DegradedDesign(hw) and runs the
// cycle-level simulator in one step — the shortest public path to an
// ordered per-segment result and (with WithTelemetry) a Chrome trace.
func SimulateWorkload(hw *HWConfig, w *Workload, opts ...SimOption) (*SimResult, error) {
	res, _, err := SimulateWorkloadContext(context.Background(), DegradedDesign(hw), w, 0, opts...)
	return res, err
}

// RunExperiment regenerates a paper table or figure by id (table1..table4,
// fig9..fig11). fast trades coverage for runtime.
func RunExperiment(id string, fast bool) (string, error) {
	return bench.Run(id, fast)
}

// Experiments lists the experiment ids.
func Experiments() []string { return bench.Experiments() }

package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"crophe/internal/arch"
	"crophe/internal/fault"
	"crophe/internal/sched"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// Acceptance tests of the fault-injection subsystem threaded end to end:
// per-seed bit-determinism, graceful degradation under every single
// fault, monotone throughput loss as faults accumulate, and near-zero
// overhead when faults are off.

func resilienceWorkload() *workload.Workload {
	return workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
}

func degradedTime(t *testing.T, spec string, seed int64) (*Result, *sched.Schedule) {
	t.Helper()
	s, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Generate(arch.CROPHE64, s, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, sc, err := SimulateDegraded(context.Background(),
		m, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return res, sc
}

func TestDegradedRunDeterministicPerSeed(t *testing.T) {
	const spec = "rows:2,links:3,slow:2@0.5,banks:8,hbm:0.8,stalls:3@200"
	a, _ := degradedTime(t, spec, 42)
	b, _ := degradedTime(t, spec, 42)
	if a.Cycles != b.Cycles || a.TimeSec != b.TimeSec {
		t.Fatalf("same seed, different timing: %g vs %g cycles", a.Cycles, b.Cycles)
	}
	if len(a.PerSegment) != len(b.PerSegment) {
		t.Fatal("segment counts differ")
	}
	for i := range a.PerSegment {
		if a.PerSegment[i].Cycles != b.PerSegment[i].Cycles {
			t.Fatalf("segment %d cycles differ: %g vs %g",
				i, a.PerSegment[i].Cycles, b.PerSegment[i].Cycles)
		}
	}
	c, _ := degradedTime(t, spec, 43)
	if c.Cycles == a.Cycles {
		t.Log("note: different seed produced identical cycles (possible but unlikely)")
	}
}

func TestEverySingleFaultStaysFeasibleAndSlower(t *testing.T) {
	w := resilienceWorkload()
	healthy, err := scheduleAndSimulate(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE), w)
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		"rows:1",
		"lanes:0.25",
		"links:1",
		"slow:1@0.5",
		"banks:8",
		"hbm:0.5",
		"stalls:2@500",
	}
	for _, spec := range specs {
		res, sc := degradedTime(t, spec, 7)
		if res.Cycles <= 0 {
			t.Errorf("%s: non-positive cycles", spec)
			continue
		}
		// A valid schedule: every compute node scheduled exactly once.
		for si, seg := range sc.Segments {
			want := len(w.Segments[si].G.ComputeNodes())
			got := 0
			for _, g := range seg.Groups {
				got += len(g.Nodes)
			}
			if got != want {
				t.Errorf("%s/%s: scheduled %d of %d nodes", spec, seg.Name, got, want)
			}
		}
		// Degradation never speeds the machine up.
		if res.Cycles < healthy.Cycles*0.999 {
			t.Errorf("%s: degraded run faster than healthy (%g < %g cycles)",
				spec, res.Cycles, healthy.Cycles)
		}
	}
}

func degradedForSpec(t *testing.T, spec fault.Spec, seed int64) (*Result, *sched.Schedule) {
	t.Helper()
	plan, err := fault.Generate(arch.CROPHE64, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, sc, err := SimulateDegraded(context.Background(),
		m, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return res, sc
}

func TestDegradationMonotoneInFaultCount(t *testing.T) {
	// Escalating a single resource class (nested fault sets under one
	// seed) must never make the machine faster. The guarantee splits by
	// layer. Lane, slow-link, bank, HBM and stall faults leave placement
	// and routing untouched, so the refined simulation is structurally
	// monotone: the same traffic drains through strictly weaker
	// resources. Row and dead-link faults re-place operators and
	// re-route transfers, which can rebalance the busiest link either
	// way — for those the monotone layer is the priced schedule
	// (composition fixed on the base machine, costs on the effective
	// view; see sched.WithPricing), and the simulation is bounded below
	// by the healthy machine in TestMixedFaultsNeverBeatHealthy.
	simDims := map[string][]fault.Spec{
		"lanes": {
			{LaneFrac: 0.125}, {LaneFrac: 0.25}, {LaneFrac: 0.5},
		},
		"slow": {
			{SlowLinks: 2, SlowFactor: 0.5}, {SlowLinks: 4, SlowFactor: 0.5},
			{SlowLinks: 8, SlowFactor: 0.5},
		},
		"banks": {
			{DeadBanks: 8}, {DeadBanks: 16}, {DeadBanks: 32},
		},
		"hbm": {
			{HBMFrac: 0.9}, {HBMFrac: 0.7}, {HBMFrac: 0.4},
		},
		"stalls": {
			{Stalls: 1, StallCycles: 200}, {Stalls: 3, StallCycles: 200},
			{Stalls: 6, StallCycles: 200},
		},
	}
	schedDims := map[string][]fault.Spec{
		"rows": {
			{FailedRows: 1}, {FailedRows: 2}, {FailedRows: 3},
		},
		"links": {
			{DeadLinks: 2}, {DeadLinks: 4}, {DeadLinks: 8},
		},
	}
	healthy, err := scheduleAndSimulate(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload())
	if err != nil {
		t.Fatal(err)
	}
	healthySched := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(resilienceWorkload())
	for dim, escalation := range simDims {
		prev := healthy.Cycles
		for step, spec := range escalation {
			res, _ := degradedForSpec(t, spec, 5)
			if res.Cycles < prev*0.999 {
				t.Errorf("%s step %d: simulated cycles fell from %g to %g as faults grew",
					dim, step, prev, res.Cycles)
			}
			prev = res.Cycles
		}
	}
	for dim, escalation := range schedDims {
		prev := healthySched.TimeSec
		for step, spec := range escalation {
			res, sc := degradedForSpec(t, spec, 5)
			if sc.TimeSec < prev*0.999 {
				t.Errorf("%s step %d: priced schedule time fell from %g to %g as faults grew",
					dim, step, prev, sc.TimeSec)
			}
			prev = sc.TimeSec
			if res.Cycles < healthy.Cycles*0.999 {
				t.Errorf("%s step %d: simulated degraded run beat healthy (%g < %g cycles)",
					dim, step, res.Cycles, healthy.Cycles)
			}
		}
	}
}

func TestMixedFaultsNeverBeatHealthy(t *testing.T) {
	// Across dimensions a fault can mask another's cost (a dead row
	// removes the placement that detoured a dead link), so pairwise
	// monotonicity is not a property of the refined simulation — but a
	// degraded machine must still never beat the healthy one.
	healthy, err := scheduleAndSimulate(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		spec := fault.Spec{FailedRows: k, DeadLinks: 2 * k, DeadBanks: 4 * k}
		plan, err := fault.Generate(arch.CROPHE64, spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		m, err := fault.NewMachine(arch.CROPHE64, plan)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := SimulateDegraded(context.Background(),
			m, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Cycles < healthy.Cycles*0.999 {
			t.Errorf("k=%d: mixed faults beat healthy (%g < %g cycles)",
				k, res.Cycles, healthy.Cycles)
		}
	}
}

func TestResilienceSweepEndToEnd(t *testing.T) {
	w := resilienceWorkload()
	opt := sched.DefaultOptions(sched.DataflowCROPHE)
	opt.SearchBudget = sched.BudgetForDeadline(200 * time.Millisecond)
	sweep, err := fault.RunSweep(context.Background(), arch.CROPHE64, 13, 4,
		DegradedRunner(context.Background(), opt, w))
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Baseline <= 0 {
		t.Fatalf("no healthy baseline: %+v", sweep.Points[0])
	}
	prev := math.Inf(1)
	for i := range sweep.Points {
		pt := &sweep.Points[i]
		if pt.Err != "" {
			t.Fatalf("rung %d infeasible: %s", i, pt.Err)
		}
		r := pt.Retained(sweep.Baseline)
		if r > prev+1e-9 {
			t.Fatalf("retained throughput rose at rung %d: %g after %g", i, r, prev)
		}
		prev = r
	}
	// Bit-determinism of the whole sweep.
	again, err := fault.RunSweep(context.Background(), arch.CROPHE64, 13, 4,
		DegradedRunner(context.Background(), opt, w))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sweep.Points {
		if sweep.Points[i].Outcome != again.Points[i].Outcome {
			t.Fatalf("rung %d differs across runs: %+v vs %+v",
				i, sweep.Points[i].Outcome, again.Points[i].Outcome)
		}
	}
}

func TestFaultTelemetryTrackAndCounters(t *testing.T) {
	spec, err := fault.ParseSpec("rows:1,links:2,banks:4,stalls:3@300")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Generate(arch.CROPHE64, spec, 17)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, _, err := SimulateDegraded(context.Background(),
		m, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload(),
		WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	counters := map[string]float64{}
	for _, c := range res.Counters {
		counters[c.Name] = c.Value
	}
	if counters["fault/seed"] != 17 {
		t.Fatalf("fault/seed counter %g want 17", counters["fault/seed"])
	}
	if counters["fault/failed_rows"] != 1 || counters["fault/dead_links"] != 2 {
		t.Fatalf("fault counters wrong: %+v", counters)
	}
	if counters["fault/stalls_injected"] < 3 || counters["fault/stall_cycles"] <= 0 {
		t.Fatalf("stall counters wrong: injected %g cycles %g",
			counters["fault/stalls_injected"], counters["fault/stall_cycles"])
	}
	tracks := map[string]bool{}
	for _, sp := range tel.Spans() {
		tracks[sp.Track] = true
	}
	if !tracks["Fault"] {
		t.Fatalf("no Fault track in trace; tracks: %v", tracks)
	}
	for _, want := range []string{"Schedule", "PE", "NoC", "SRAM", "HBM"} {
		if !tracks[want] {
			t.Fatalf("faulted run lost the %s track; tracks: %v", want, tracks)
		}
	}
}

func TestDegradedRunPricesSDCRecovery(t *testing.T) {
	// A flip-injecting plan must price the integrity protocol: the run
	// carries an Integrity outcome whose penalty is folded into Cycles,
	// the integrity/* counters land in telemetry, and the whole thing is
	// deterministic per seed and monotone in the flip rate.
	clean, _ := degradedTime(t, "healthy", 42)
	lo, _ := degradedTime(t, "flip:0.0001,scrub:100000", 42)
	lo2, _ := degradedTime(t, "flip:0.0001,scrub:100000", 42)
	hi, _ := degradedTime(t, "flip:0.001,scrub:100000", 42)

	if clean.Integrity != nil {
		t.Fatal("clean run priced SDC recovery")
	}
	if lo.Integrity == nil || hi.Integrity == nil {
		t.Fatal("flip-injecting run carries no Integrity outcome")
	}
	if lo.Cycles != lo2.Cycles || *lo.Integrity != *lo2.Integrity {
		t.Fatal("SDC pricing not deterministic per seed")
	}
	if lo.Integrity.Checks <= 0 || lo.Integrity.Detected <= 0 {
		t.Fatalf("flip run detected nothing: %+v", *lo.Integrity)
	}
	if hi.Integrity.Detected <= lo.Integrity.Detected {
		t.Fatalf("detections not monotone in flip rate: %g then %g",
			lo.Integrity.Detected, hi.Integrity.Detected)
	}
	if lo.Cycles <= clean.Cycles {
		t.Fatalf("recovery penalty did not extend the run: %g vs clean %g", lo.Cycles, clean.Cycles)
	}
	if hi.Cycles <= lo.Cycles {
		t.Fatalf("cycles not monotone in flip rate: %g then %g", lo.Cycles, hi.Cycles)
	}
	if lo.Integrity.ScrubCycles <= 0 {
		t.Fatalf("scrub period priced no scrub passes: %+v", *lo.Integrity)
	}

	// Counters and the recovery span land in telemetry.
	s, err := fault.ParseSpec("flip:0.001")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Generate(arch.CROPHE64, s, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	res, _, err := SimulateDegraded(context.Background(),
		m, sched.DefaultOptions(sched.DataflowCROPHE), resilienceWorkload(),
		WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	for _, c := range res.Counters {
		counters[c.Name] = c.Value
	}
	if counters["integrity/checks"] != res.Integrity.Checks ||
		counters["integrity/detected"] != res.Integrity.Detected ||
		counters["integrity/recomputed"] != res.Integrity.Recomputed ||
		counters["integrity/escalated"] != res.Integrity.Escalated {
		t.Fatalf("integrity counters disagree with the outcome: %+v vs %+v", counters, *res.Integrity)
	}
	if counters["fault/flip_rate"] != 0.001 {
		t.Fatalf("fault/flip_rate = %g", counters["fault/flip_rate"])
	}
	if counters["integrity/escalated"] != float64(len(plan.QuarantinedBanks)) {
		t.Fatalf("escalations %g != quarantined banks %d",
			counters["integrity/escalated"], len(plan.QuarantinedBanks))
	}
	found := false
	for _, sp := range tel.Spans() {
		if sp.Track == "Fault" && sp.Lane == "sdc" {
			found = true
		}
	}
	if !found {
		t.Fatal("no sdc recovery span on the Fault track")
	}
}

// BenchmarkSimulateFaulted replays two schedules on seeded faulted
// machines: CROPHE-64's fine-grained schedule of an NTT-decomposed
// bootstrap on its 8×8 mesh with downed links (detour routing), and the
// ARK baseline's schedule on its 64×1 row with slowed links (a downed
// link would partition a row). One op simulates both schedules on each
// of four fault plans; plans are built beforehand.
func BenchmarkSimulateFaulted(b *testing.B) {
	type replay struct {
		hw *arch.HWConfig
		w  *workload.Workload
		s  *sched.Schedule
		m  []*fault.Machine
	}
	w := resilienceWorkload()
	dec := w.DecomposeNTTs()
	replays := []replay{
		{hw: arch.CROPHE64, w: dec, s: sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(dec)},
		{hw: arch.ARK, w: w, s: sched.New(arch.ARK, sched.DefaultOptions(sched.DataflowMAD)).Run(w)},
	}
	specs := []fault.Spec{
		{DeadLinks: 2, DeadBanks: 4, HBMFrac: 0.8, Stalls: 4, StallCycles: 200, FlipRate: 1e-3},
		{SlowLinks: 2, SlowFactor: 0.5, DeadBanks: 4, HBMFrac: 0.8, Stalls: 4, StallCycles: 200, FlipRate: 1e-3},
	}
	for i := range replays {
		r := &replays[i]
		// Take the first four plans the machine survives.
		for seed := int64(1); len(r.m) < 4; seed++ {
			plan, err := fault.Generate(r.hw, specs[i], seed)
			if err != nil {
				b.Fatal(err)
			}
			m, err := fault.NewMachine(r.hw, plan)
			if errors.Is(err, fault.ErrMachineDead) {
				continue
			}
			if err != nil {
				b.Fatal(err)
			}
			r.m = append(r.m, m)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range replays {
			for _, m := range r.m {
				if _, err := New(r.hw, WithFaults(m)).SimulateSchedule(r.w, r.s); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

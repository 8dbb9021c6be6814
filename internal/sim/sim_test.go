package sim

import (
	"testing"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

func TestSimulateBootstrapProducesPlausibleTiming(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 || r.TimeSec <= 0 {
		t.Fatal("non-positive simulated time")
	}
	// The cycle simulation refines but should not wildly contradict the
	// analytical schedule (same traffic, same compute).
	ratio := r.TimeSec / s.TimeSec
	if ratio < 0.5 || ratio > 5 {
		t.Fatalf("simulated/analytical ratio %.2f out of range (sim %.3g s, sched %.3g s)",
			ratio, r.TimeSec, s.TimeSec)
	}
	if len(r.PerSegment) != len(w.Segments) {
		t.Fatalf("per-segment results %d want %d", len(r.PerSegment), len(w.Segments))
	}
	// PerSegment is ordered: entries follow workload execution order.
	for i, sc := range r.PerSegment {
		if sc.Name != w.Segments[i].Name {
			t.Fatalf("segment %d = %q want %q (order lost)", i, sc.Name, w.Segments[i].Name)
		}
		if sc.Cycles <= 0 || sc.Count < 1 {
			t.Fatalf("segment %q has cycles %v count %d", sc.Name, sc.Cycles, sc.Count)
		}
		if got, ok := r.SegmentCycles(sc.Name); !ok || got != sc.Cycles {
			t.Fatalf("SegmentCycles(%q) = %v,%v want %v,true", sc.Name, got, ok, sc.Cycles)
		}
	}
}

func TestSimulatedOrderingMatchesScheduler(t *testing.T) {
	// The headline comparison must survive cycle simulation: CROPHE
	// faster than MAD on the same hardware.
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)

	sMad := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowMAD)).Run(w)
	rMad, err := New(arch.CROPHE64).SimulateSchedule(w, sMad)
	if err != nil {
		t.Fatal(err)
	}
	sCro := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	rCro, err := New(arch.CROPHE64).SimulateSchedule(w, sCro)
	if err != nil {
		t.Fatal(err)
	}
	if rCro.TimeSec >= rMad.TimeSec {
		t.Fatalf("simulated CROPHE %.3g not faster than MAD %.3g", rCro.TimeSec, rMad.TimeSec)
	}
}

func TestSimulateBaselineConfig(t *testing.T) {
	// Baselines have no mesh config; the simulator must still run them.
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotMinKS, 0)
	s := sched.New(arch.ARK, sched.DefaultOptions(sched.DataflowMAD)).Run(w)
	r, err := New(arch.ARK).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles <= 0 {
		t.Fatal("baseline simulation produced no cycles")
	}
}

func TestUtilizationBounds(t *testing.T) {
	w := workload.ResNet(arch.ParamsARK, 20, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"PE": r.Util.PE, "NoC": r.Util.NoC, "SRAM": r.Util.SRAM, "DRAM": r.Util.DRAM,
	} {
		if v < 0 || v > 1 {
			t.Errorf("%s utilisation %f out of bounds", name, v)
		}
	}
	if r.Util.PE == 0 {
		t.Error("PE utilisation zero")
	}
}

func TestRunConvenience(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsSHARP, workload.RotHybrid, 4)
	r, err := scheduleAndSimulate(arch.CROPHE36, sched.DefaultOptions(sched.DataflowCROPHE), w)
	if err != nil {
		t.Fatal(err)
	}
	if r.HW != "CROPHE-36" || r.Workload != "bootstrapping" {
		t.Fatal("result identity")
	}
	if r.Describe() == "" {
		t.Fatal("empty description")
	}
}

func TestClustersDividePerTaskCycles(t *testing.T) {
	w := workload.HELR(arch.ParamsARK, workload.RotHoisted, 0)
	opt := sched.DefaultOptions(sched.DataflowCROPHE)
	s1 := sched.New(arch.CROPHE64, opt).Run(w)
	r1, err := New(arch.CROPHE64).SimulateSchedule(w, s1)
	if err != nil {
		t.Fatal(err)
	}
	opt.Clusters = 4
	s4 := sched.New(arch.CROPHE64, opt).Run(w)
	r4, err := New(arch.CROPHE64).SimulateSchedule(w, s4)
	if err != nil {
		t.Fatal(err)
	}
	// Per-task time with clusters must not be drastically worse.
	if r4.TimeSec > r1.TimeSec*1.5 {
		t.Fatalf("clustered simulation %.3g vs %.3g", r4.TimeSec, r1.TimeSec)
	}
}

// TestClustersComeFromSchedule checks that the simulator divides by the
// cluster count the scheduler settled on, not by a clamp of its own
// against the workload it is handed: one schedule simulated with two
// workloads that differ only in data parallelism runs the same cycles.
func TestClustersComeFromSchedule(t *testing.T) {
	w := workload.HELR(arch.ParamsARK, workload.RotHoisted, 0)
	opt := sched.DefaultOptions(sched.DataflowCROPHE)
	opt.Clusters = 4
	s := sched.New(arch.CROPHE64, opt).Run(w)
	if s.Clusters != 4 {
		t.Fatalf("schedule records %d clusters, want 4", s.Clusters)
	}
	narrow := *w
	narrow.DataParallel = 1
	a, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(arch.CROPHE64).SimulateSchedule(&narrow, s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("same schedule, DataParallel %d vs 1: %v vs %v cycles", w.DataParallel, a.Cycles, b.Cycles)
	}
}

func TestEnergyEstimate(t *testing.T) {
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHoisted, 0)
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := New(arch.CROPHE64).SimulateSchedule(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.EnergyJ <= 0 {
		t.Fatal("no energy estimated")
	}
	// Sanity: energy must be below peak-power × time and above
	// leakage-only.
	chipPower := 195.2 // Table I CROPHE-64 watts (approx)
	if r.EnergyJ > 2*chipPower*r.TimeSec {
		t.Fatalf("energy %.3g J implausibly high for %.3g s", r.EnergyJ, r.TimeSec)
	}
	if r.EnergyJ < 0.01*chipPower*r.TimeSec {
		t.Fatalf("energy %.3g J implausibly low", r.EnergyJ)
	}
	t.Logf("bootstrapping energy: %.2f mJ over %.3f ms (avg %.1f W)",
		r.EnergyJ*1e3, r.TimeSec*1e3, r.EnergyJ/r.TimeSec)
}

// scheduleAndSimulate schedules w under opt and simulates the schedule.
func scheduleAndSimulate(hw *arch.HWConfig, opt sched.Options, w *workload.Workload) (*Result, error) {
	return New(hw).SimulateSchedule(w, sched.New(hw, opt).Run(w))
}

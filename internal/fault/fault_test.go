package fault

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/leakcheck"
	"crophe/internal/mem"
	"crophe/internal/noc"
	"crophe/internal/telemetry"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"rows:2",
		"rows:2,links:3",
		"rows:1,lanes:0.25,links:3,slow:2@0.5,banks:8,hbm:0.75,stalls:4@200,stallp:0.1",
		"rows:1,lanes:0.25,links:3,slow:2@0.5,banks:8,hbm:0.75,stalls:4@200,stallp:0.1,flip:0.01,scrub:256",
		"flip:0.5",
		"scrub:1024",
		"healthy",
		"",
	}
	for _, text := range cases {
		s, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", s.String(), text, err)
		}
		if s != again {
			t.Fatalf("%q: round trip %+v != %+v", text, s, again)
		}
	}
}

func TestParseSpecRejectsMalformed(t *testing.T) {
	bad := []string{
		"rows",              // no value
		"rows:x",            // not a number
		"rows:-1",           // negative
		"lanes:1.5",         // fraction out of range
		"lanes:1",           // lanes:1 kills every lane — out of [0,1)
		"slow:2",            // missing @factor
		"slow:2@1.5",        // factor out of range
		"slow:2@0",          // zero factor
		"hbm:0",             // zero HBM
		"stalls:3@0",        // zero duration
		"warp:9",            // unknown field
		"rows:1,rows:2",     // duplicate
		"rows:1,,links:2",   // empty field
		"flip:1",            // flip rate out of [0,1)
		"flip:-0.1",         // negative flip rate
		"flip:x",            // not a number
		"scrub:-1",          // negative scrub period
		"scrub:1.5",         // non-integer period
		"flip:0.1,flip:0.2", // duplicate flip
	}
	for _, text := range bad {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("%q: parsed without error", text)
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	spec, err := ParseSpec("rows:2,links:4,slow:3@0.5,banks:8,hbm:0.8,stalls:3@100")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Generate(arch.CROPHE64, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(arch.CROPHE64, spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	c, err := Generate(arch.CROPHE64, spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FailedRows, c.FailedRows) && reflect.DeepEqual(a.DeadLinks, c.DeadLinks) {
		t.Fatal("different seeds picked identical rows and links")
	}
}

func TestPlanPrefixNesting(t *testing.T) {
	// Under one seed, a spec with k failures of a resource must fail a
	// subset of the k+1 spec's resources — the property that makes
	// escalating sweeps monotone.
	const seed = 7
	prevRows := map[int]bool{}
	prevLinks := map[Link]bool{}
	for k := 0; k <= 4; k++ {
		spec := Spec{FailedRows: k, DeadLinks: 3 * k, SlowLinks: 2 * k, SlowFactor: 0.5}
		p, err := Generate(arch.CROPHE64, spec, seed)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rows := map[int]bool{}
		for _, r := range p.FailedRows {
			rows[r] = true
		}
		for r := range prevRows {
			if !rows[r] {
				t.Fatalf("k=%d: row %d failed at k-1 but not at k", k, r)
			}
		}
		links := map[Link]bool{}
		for _, l := range p.DeadLinks {
			links[l] = true
		}
		for l := range prevLinks {
			if !links[l] {
				t.Fatalf("k=%d: link %+v dead at k-1 but not at k", k, l)
			}
		}
		prevRows, prevLinks = rows, links
	}
}

func TestGenerateRejectsOversizedSpecs(t *testing.T) {
	cases := []Spec{
		{FailedRows: arch.CROPHE64.MeshH + 1},
		{DeadLinks: 10000},
		{DeadBanks: bufBanks},
	}
	for _, spec := range cases {
		if _, err := Generate(arch.CROPHE64, spec, 1); err == nil {
			t.Errorf("spec %+v generated a plan", spec)
		} else if !strings.Contains(err.Error(), "seed") {
			t.Errorf("spec %+v: error does not carry the seed: %v", spec, err)
		}
	}
}

func TestDeratingReflectsPlan(t *testing.T) {
	spec := Spec{FailedRows: 2, LaneFrac: 0.25, DeadBanks: 16, HBMFrac: 0.5}
	p, err := Generate(arch.CROPHE64, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := p.Derating()
	if d.PEs != 0.75 { // 2 of 8 rows failed
		t.Fatalf("PE derating %g want 0.75", d.PEs)
	}
	if d.Lane != 0.75 {
		t.Fatalf("lane derating %g want 0.75", d.Lane)
	}
	if d.SRAM != 0.75 { // 16 of 64 banks
		t.Fatalf("SRAM derating %g want 0.75", d.SRAM)
	}
	if d.DRAM != 0.5 {
		t.Fatalf("DRAM derating %g want 0.5", d.DRAM)
	}
	if d.NoC != 1 {
		t.Fatalf("NoC derating %g want 1 (no link faults)", d.NoC)
	}
	healthy, err := Generate(arch.CROPHE64, Spec{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Derating() != arch.Healthy() {
		t.Fatalf("healthy plan derates: %+v", healthy.Derating())
	}
}

func TestMachineValidateDeadMachines(t *testing.T) {
	mkPlan := func(mutate func(*Plan)) Plan {
		p, err := Generate(arch.CROPHE64, Spec{}, 9)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		return p
	}
	cases := []struct {
		name string
		plan Plan
	}{
		{"all rows failed", mkPlan(func(p *Plan) { p.FailedRows = []int{0, 1, 2, 3, 4, 5, 6, 7} })},
		{"all banks dead", mkPlan(func(p *Plan) { p.DeadBanks = bufBanks })},
		{"HBM zeroed", mkPlan(func(p *Plan) { p.HBMFrac = 0 })},
		{"all lanes gone", mkPlan(func(p *Plan) { p.LaneFrac = 1 })},
	}
	for _, tc := range cases {
		_, err := NewMachine(arch.CROPHE64, tc.plan)
		if err == nil {
			t.Errorf("%s: machine accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrMachineDead) {
			t.Errorf("%s: want ErrMachineDead, got %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), "seed 9") {
			t.Errorf("%s: error does not carry the seed: %v", tc.name, err)
		}
	}
}

func TestMachineValidatePartitionedMesh(t *testing.T) {
	// Cut the entire column boundary between x=0 and x=1 on a healthy
	// plan: the mesh splits in two, which must be rejected.
	p, err := Generate(arch.CROPHE64, Spec{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < p.MeshH; y++ {
		p.DeadLinks = append(p.DeadLinks, Link{From: noc.Coord{X: 0, Y: y}, Dir: 'E'})
	}
	_, err = NewMachine(arch.CROPHE64, p)
	if !errors.Is(err, ErrMachineDead) {
		t.Fatalf("partitioned mesh: want ErrMachineDead, got %v", err)
	}
}

func TestMachineAppliesToModels(t *testing.T) {
	spec, err := ParseSpec("rows:1,links:2,slow:1@0.5,banks:8,hbm:0.8")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Generate(arch.CROPHE64, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}

	mesh, err := noc.NewMesh(plan.MeshW, plan.MeshH, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyToMesh(mesh); err != nil {
		t.Fatal(err)
	}
	if mesh.DeadLinks() != 2 || mesh.SlowLinks() != 1 {
		t.Fatalf("mesh got %d dead, %d slow links", mesh.DeadLinks(), mesh.SlowLinks())
	}
	// Geometry mismatch is rejected.
	small, _ := noc.NewMesh(2, 2, 64, 1)
	if err := m.ApplyToMesh(small); err == nil {
		t.Fatal("geometry mismatch accepted")
	}

	hbm, _ := mem.NewHBM(1, 1)
	if err := m.ApplyToHBM(hbm); err != nil {
		t.Fatal(err)
	}
	if hbm.ThrottleFactor() != 0.8 {
		t.Fatalf("HBM throttle %g want 0.8", hbm.ThrottleFactor())
	}

	sram, _ := mem.NewSRAM(512, 39, 1.2, bufBanks)
	if err := m.ApplyToSRAM(sram); err != nil {
		t.Fatal(err)
	}
	if sram.EffectiveBanks() != bufBanks-8 {
		t.Fatalf("SRAM banks %d want %d", sram.EffectiveBanks(), bufBanks-8)
	}

	if got := m.FailedRows(); len(got) != 1 {
		t.Fatalf("failed rows %v want 1 row", got)
	}
	eff := m.EffectiveHW()
	if eff.NumPEs >= arch.CROPHE64.NumPEs {
		t.Fatalf("effective PEs %d not reduced from %d", eff.NumPEs, arch.CROPHE64.NumPEs)
	}
	if !strings.Contains(m.Describe(), "seed 11") {
		t.Fatalf("Describe misses the seed: %s", m.Describe())
	}
}

func TestStallSamplerDeterministic(t *testing.T) {
	spec, err := ParseSpec("stalls:3@100,stallp:0.5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Generate(arch.CROPHE64, spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []float64 {
		ss := m.StallSampler()
		out := make([]float64, 20)
		for i := range out {
			out[i] = ss.Next()
		}
		return out
	}
	a, b := draw(), draw()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("stall streams differ:\n%v\n%v", a, b)
	}
	// The three fixed events come first and land in [50, 150).
	for i := 0; i < 3; i++ {
		if a[i] < 50 || a[i] >= 150 {
			t.Fatalf("fixed stall %d = %g outside [50, 150)", i, a[i])
		}
	}
	count, total := 0, 0.0
	ss := m.StallSampler()
	for i := 0; i < 20; i++ {
		ss.Next()
	}
	count, total = ss.Injected()
	if count < 3 || total <= 0 {
		t.Fatalf("injected %d stalls totalling %g", count, total)
	}
}

func TestMachineEmitCounters(t *testing.T) {
	plan, err := Generate(arch.CROPHE64, Spec{FailedRows: 2, DeadLinks: 1, DeadBanks: 4}, 21)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	m.EmitCounters(tel)
	if tel.Counter("fault/seed") != 21 {
		t.Fatalf("fault/seed = %g", tel.Counter("fault/seed"))
	}
	if tel.Counter("fault/failed_rows") != 2 || tel.Counter("fault/dead_links") != 1 {
		t.Fatalf("counters %+v", tel.CounterMap())
	}
	m.EmitCounters(nil) // disabled path is a no-op
}

func TestSweepDeterministicAndMonotone(t *testing.T) {
	leakcheck.Check(t)
	// A runner that scores the machine analytically: effective compute ×
	// bandwidth. Slower on every derated resource, so the sweep must be
	// monotone non-increasing in retained throughput.
	runner := func(m *Machine) (Outcome, error) {
		eff := m.EffectiveHW()
		score := float64(eff.NumPEs*eff.Lanes) * eff.DRAMBandwidthTBs * eff.SRAMBandwidthTBs
		return Outcome{TimeSec: 1e15 / score}, nil
	}
	a, err := RunSweep(context.Background(), arch.CROPHE64, 99, 6, runner)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(context.Background(), arch.CROPHE64, 99, 6, runner)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different sweeps")
	}
	if len(a.Points) != 6 {
		t.Fatalf("%d points want 6", len(a.Points))
	}
	if a.Points[0].FracFailed != 0 || a.Points[0].FaultCount != 0 {
		t.Fatalf("rung 0 not healthy: %+v", a.Points[0])
	}
	prev := 2.0
	for i := range a.Points {
		pt := &a.Points[i]
		if pt.Err != "" {
			t.Fatalf("rung %d infeasible: %s", i, pt.Err)
		}
		r := pt.Retained(a.Baseline)
		if r > prev+1e-9 {
			t.Fatalf("retained throughput rose at rung %d: %g after %g", i, r, prev)
		}
		prev = r
		if i > 0 && pt.FaultCount < a.Points[i-1].FaultCount {
			t.Fatalf("fault count shrank at rung %d", i)
		}
	}
	report := a.String()
	for _, want := range []string{"resilience sweep", "seed 99", "retained"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report misses %q:\n%s", want, report)
		}
	}
}

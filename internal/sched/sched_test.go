package sched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

var testParams = arch.ParamSet{Name: "test", LogN: 14, L: 15, LBoot: 9, DNum: 4, Alpha: 4}

func bootFactory(mode workload.RotMode, rHyb int) *workload.Workload {
	return workload.Bootstrapping(testParams, mode, rHyb)
}

// allocateFor is allocatePEs over the effective loads of nodes.
func allocateFor(nodes []*graph.Node, pes int) []int {
	loads := make([]float64, len(nodes))
	for i, n := range nodes {
		loads[i] = effLoad(n)
	}
	alloc := make([]int, len(nodes))
	allocatePEs(alloc, loads, pes)
	return alloc
}

func TestAllocatePEsProportional(t *testing.T) {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 4, N: 4096}
	heavy := g.AddNode(graph.OpNTT, "ntt", shape)
	heavy.SubNTTLen = 4096
	light := g.AddNode(graph.OpEWMul, "mul", shape)

	alloc := allocateFor([]*graph.Node{heavy, light}, 16)
	if alloc[0]+alloc[1] != 16 {
		t.Fatalf("allocation %v does not sum to 16", alloc)
	}
	if alloc[0] <= alloc[1] {
		t.Fatalf("heavy op got %d PEs vs light %d", alloc[0], alloc[1])
	}
	// NTT load / EW load = (N/2·12)/N = 6 → roughly 6:1 split.
	if alloc[0] < 12 {
		t.Fatalf("heavy op allocation %d too small", alloc[0])
	}
}

func TestAllocatePEsMinimumOne(t *testing.T) {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 1, N: 64}
	zero := g.AddNode(graph.OpAutomorph, "auto", shape) // tiny move load
	big := g.AddNode(graph.OpNTT, "ntt", graph.Tensor{Digits: 1, Limbs: 16, N: 65536})
	big.SubNTTLen = 65536
	alloc := allocateFor([]*graph.Node{zero, big}, 8)
	if alloc[0] < 1 || alloc[1] < 1 {
		t.Fatalf("allocation %v violates minimum", alloc)
	}
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation %v does not sum", alloc)
	}
}

func TestOpClassMapping(t *testing.T) {
	if opClassOf(graph.OpNTTCol) != arch.ClassNTT {
		t.Error("ntt-col class")
	}
	if opClassOf(graph.OpInP) != arch.ClassBConv {
		t.Error("inp class")
	}
	if opClassOf(graph.OpAutomorph) != arch.ClassAutomorph {
		t.Error("automorph class")
	}
	if opClassOf(graph.OpRescale) != arch.ClassEW {
		t.Error("rescale class")
	}
}

func TestScheduleProducesPositiveTime(t *testing.T) {
	w := bootFactory(workload.RotHoisted, 0)
	s := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE))
	res := s.Run(w)
	if res.TimeSec <= 0 {
		t.Fatal("non-positive schedule time")
	}
	if res.Traffic.DRAM <= 0 {
		t.Fatal("no DRAM traffic modeled")
	}
	if len(res.Segments) != len(w.Segments) {
		t.Fatal("segment count mismatch")
	}
	for _, seg := range res.Segments {
		if seg.TimeSec < 0 {
			t.Fatalf("segment %s negative time", seg.Name)
		}
	}
}

func TestCROPHEBeatsMADOnSameHardware(t *testing.T) {
	// §VII-D: the CROPHE dataflow is necessary to unlock the homogeneous
	// hardware — MAD on CROPHE hardware must be slower.
	w := bootFactory(workload.RotHoisted, 0)
	mad := New(arch.CROPHE64, DefaultOptions(DataflowMAD)).Run(w)
	cro := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Run(w)
	if cro.TimeSec >= mad.TimeSec {
		t.Fatalf("CROPHE %.3gs not faster than MAD %.3gs on same hardware",
			cro.TimeSec, mad.TimeSec)
	}
	// And the gain should be substantial (paper: ≥ 1.5×).
	if mad.TimeSec/cro.TimeSec < 1.2 {
		t.Fatalf("CROPHE speedup over MAD only %.2f×", mad.TimeSec/cro.TimeSec)
	}
}

func TestCROPHEReducesTraffic(t *testing.T) {
	// At constrained capacity (the Figure 11 setting) the CROPHE dataflow
	// must cut accesses to the expensive memory levels.
	w := bootFactory(workload.RotHoisted, 0)
	hw := arch.CROPHE64.WithSRAM(32) // small enough that MAD's live sets spill
	mad := New(hw, DefaultOptions(DataflowMAD)).Run(w)
	cro := New(hw, DefaultOptions(DataflowCROPHE)).Run(w)
	if cro.Traffic.DRAM >= mad.Traffic.DRAM {
		t.Fatalf("CROPHE DRAM %.1f MB not below MAD %.1f MB",
			cro.Traffic.DRAM/1e6, mad.Traffic.DRAM/1e6)
	}
	if cro.Traffic.SRAM >= mad.Traffic.SRAM {
		t.Fatalf("CROPHE SRAM %.1f MB not below MAD %.1f MB",
			cro.Traffic.SRAM/1e6, mad.Traffic.SRAM/1e6)
	}
}

func TestMADonHomogeneousSlowerThanSpecializedBaseline(t *testing.T) {
	// §VII-D: homogeneous hardware + MAD performs worse than the
	// specialised baseline + MAD (the coupling argument).
	w := func(mode workload.RotMode, r int) *workload.Workload {
		return workload.Bootstrapping(arch.ParamsARK, mode, r)
	}
	base := Design{Name: "ARK+MAD", HW: arch.ARK, Dataflow: DataflowMAD}.Evaluate(w)
	croMad := Design{Name: "CROPHE+MAD", HW: arch.CROPHE64, Dataflow: DataflowMAD}.Evaluate(w)
	if croMad.TimeSec <= base.TimeSec {
		t.Fatalf("CROPHE-hw+MAD %.3gs should be slower than ARK+MAD %.3gs",
			croMad.TimeSec, base.TimeSec)
	}
}

func TestFullCROPHEBeatsBaseline(t *testing.T) {
	// Headline result: CROPHE with all optimisations beats the baseline
	// accelerator with MAD scheduling.
	w := func(mode workload.RotMode, r int) *workload.Workload {
		return workload.Bootstrapping(arch.ParamsARK, mode, r)
	}
	base := Design{Name: "ARK+MAD", HW: arch.ARK, Dataflow: DataflowMAD}.Evaluate(w)
	cro := Design{Name: "CROPHE", HW: arch.CROPHE64, Dataflow: DataflowCROPHE,
		NTTDec: true, HybridRot: true}.Evaluate(w)
	speedup := base.TimeSec / cro.TimeSec
	if speedup < 1.2 {
		t.Fatalf("CROPHE speedup over ARK+MAD only %.2f×", speedup)
	}
	t.Logf("CROPHE-64 vs ARK+MAD bootstrapping speedup: %.2f×", speedup)
}

func TestAblationLadderMonotonic(t *testing.T) {
	// Figure 11: Base ≥ NTTDec/HybRot ≥ full CROPHE in runtime (each
	// added optimisation must not hurt, since the scheduler picks the
	// best candidate).
	w := func(mode workload.RotMode, r int) *workload.Workload {
		return workload.Bootstrapping(arch.ParamsSHARP, mode, r)
	}
	hw := arch.CROPHE36.WithSRAM(45) // the small-SRAM setting of Fig. 11
	designs := AblationDesigns(hw)
	times := map[string]float64{}
	for _, d := range designs {
		times[d.Name] = d.Evaluate(w).TimeSec
	}
	if times["Base"] > times["MAD"] {
		t.Errorf("Base %.3g slower than MAD %.3g on CROPHE hw", times["Base"], times["MAD"])
	}
	if times["NTTDec"] > times["Base"] {
		t.Errorf("NTTDec %.3g slower than Base %.3g", times["NTTDec"], times["Base"])
	}
	if times["HybRot"] > times["Base"] {
		t.Errorf("HybRot %.3g slower than Base %.3g", times["HybRot"], times["Base"])
	}
	if times["CROPHE"] > times["NTTDec"] || times["CROPHE"] > times["HybRot"] {
		t.Errorf("full CROPHE %.3g not the fastest", times["CROPHE"])
	}
	t.Logf("ablation times: MAD=%.3g Base=%.3g NTTDec=%.3g HybRot=%.3g CROPHE=%.3g",
		times["MAD"], times["Base"], times["NTTDec"], times["HybRot"], times["CROPHE"])
}

func TestSpeedupGrowsAsSRAMShrinks(t *testing.T) {
	// Figure 10: CROPHE's advantage over the baseline increases at
	// smaller SRAM capacities.
	w := func(mode workload.RotMode, r int) *workload.Workload {
		return workload.Bootstrapping(arch.ParamsSHARP, mode, r)
	}
	speedupAt := func(sram float64) float64 {
		base := Design{HW: arch.SHARP.WithSRAM(sram), Dataflow: DataflowMAD}.Evaluate(w)
		cro := Design{HW: arch.CROPHE36.WithSRAM(sram), Dataflow: DataflowCROPHE,
			NTTDec: true, HybridRot: true}.Evaluate(w)
		return base.TimeSec / cro.TimeSec
	}
	large := speedupAt(180)
	small := speedupAt(45)
	if small <= large {
		t.Fatalf("speedup at 45 MB (%.2f×) not larger than at 180 MB (%.2f×)", small, large)
	}
	t.Logf("speedup: %.2f× @180MB → %.2f× @45MB", large, small)
}

func TestCROPHEPFasterThanCROPHE(t *testing.T) {
	// CROPHE-p must never be slower, and on data-parallel workloads with
	// heavy evk traffic (HELR) the cross-cluster sharing must show a
	// measurable gain.
	for _, tc := range []struct {
		name    string
		factory WorkloadFactory
		minGain float64
	}{
		{"resnet-20", func(m workload.RotMode, r int) *workload.Workload {
			return workload.ResNet(arch.ParamsARK, 20, m, r)
		}, 1.0},
		{"helr", func(m workload.RotMode, r int) *workload.Workload {
			return workload.HELR(arch.ParamsARK, m, r)
		}, 1.05},
	} {
		cro := Design{HW: arch.CROPHE64, Dataflow: DataflowCROPHE, NTTDec: true, HybridRot: true}.Evaluate(tc.factory)
		crop := Design{HW: arch.CROPHE64, Dataflow: DataflowCROPHE, NTTDec: true, HybridRot: true, Clusters: 4}.Evaluate(tc.factory)
		gain := cro.TimeSec / crop.TimeSec
		if gain < tc.minGain {
			t.Errorf("%s: CROPHE-p gain %.3f below %.2f", tc.name, gain, tc.minGain)
		}
	}
}

func TestUtilizationInRange(t *testing.T) {
	w := workload.ResNet(arch.ParamsARK, 20, workload.RotHoisted, 0)
	res := New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Run(w)
	u := res.Util
	for name, v := range map[string]float64{"PE": u.PE, "NoC": u.NoC, "SRAM": u.SRAM, "DRAM": u.DRAM} {
		if v < 0 || v > 1 {
			t.Errorf("%s utilisation %.2f out of [0,1]", name, v)
		}
	}
	if u.PE == 0 || u.DRAM == 0 {
		t.Error("zero utilisation is implausible")
	}
}

func TestClustersCappedByDataParallelism(t *testing.T) {
	w := bootFactory(workload.RotHoisted, 0) // DataParallel = 2
	opt := DefaultOptions(DataflowCROPHE)
	opt.Clusters = 8
	res := New(arch.CROPHE64, opt).Run(w)
	opt2 := DefaultOptions(DataflowCROPHE)
	opt2.Clusters = 2
	res2 := New(arch.CROPHE64, opt2).Run(w)
	// With DataParallel=2, clusters=8 must behave like clusters=2.
	if res.TimeSec != res2.TimeSec {
		t.Fatalf("cluster cap not applied: %.3g vs %.3g", res.TimeSec, res2.TimeSec)
	}
}

func TestGroupCostRespectsBaselineShares(t *testing.T) {
	// A pure-NTT group on a specialised design must be limited by the
	// NTT share of the datapath.
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 8, N: 65536}
	ntt := g.AddNode(graph.OpNTT, "ntt", shape)
	ntt.SubNTTLen = 65536

	var p groupPricer
	gs := p.costGroup(arch.SHARP, DefaultOptions(DataflowMAD), []*graph.Node{ntt})
	load := float64(ntt.ModMuls())
	full := load / (float64(arch.SHARP.TotalLanes()) * effSpecialized * arch.SHARP.FreqGHz * 1e9)
	if gs.Compute <= full {
		t.Fatalf("specialised NTT time %.3g should exceed whole-chip time %.3g", gs.Compute, full)
	}
}

func TestDataflowString(t *testing.T) {
	if DataflowMAD.String() != "mad" || DataflowCROPHE.String() != "crophe" {
		t.Fatal("dataflow names")
	}
}

func TestAllocatePEsProperty(t *testing.T) {
	// For random load mixes: allocations sum to the PE budget (when the
	// budget covers the one-PE minimum) and every op gets at least one.
	prop := func(seed int64, nOpsRaw, pesRaw uint8) bool {
		nOps := int(nOpsRaw)%6 + 2 // 2..7 ops
		pes := int(pesRaw)%60 + nOps
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		nodes := make([]*graph.Node, nOps)
		for i := range nodes {
			n := g.AddNode(graph.OpEWMul, "op", graph.Tensor{
				Digits: 1, Limbs: rng.Intn(20) + 1, N: 1 << (6 + rng.Intn(6)),
			})
			nodes[i] = n
		}
		alloc := allocateFor(nodes, pes)
		sum := 0
		for _, a := range alloc {
			if a < 1 {
				return false
			}
			sum += a
		}
		return sum == pes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSearchStatsAndTelemetryMirror(t *testing.T) {
	w := bootFactory(workload.RotHoisted, 0)
	before := Stats()
	tel := telemetry.New()
	New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).WithTelemetry(tel).Run(w)
	after := Stats()

	candidates := after.Candidates - before.Candidates
	if candidates == 0 {
		t.Fatal("DP explored no candidates")
	}
	if after.CacheMisses == before.CacheMisses {
		t.Fatal("fresh scheduler recorded no segment-cache misses")
	}
	// The per-run collector mirrors the process-global deltas exactly.
	if got := tel.Counter("sched/candidates"); got != float64(candidates) {
		t.Fatalf("sched/candidates %v want %d", got, candidates)
	}
	if got := tel.Counter("sched/pruned"); got != float64(after.Pruned-before.Pruned) {
		t.Fatalf("sched/pruned %v want %d", got, after.Pruned-before.Pruned)
	}
	misses := float64(after.CacheMisses - before.CacheMisses)
	hits := float64(after.CacheHits - before.CacheHits)
	if tel.Counter("sched/seg_cache_misses") != misses || tel.Counter("sched/seg_cache_hits") != hits {
		t.Fatalf("cache counters %v/%v want %v/%v",
			tel.Counter("sched/seg_cache_hits"), tel.Counter("sched/seg_cache_misses"), hits, misses)
	}

	// Telemetry is opt-in: a plain run updates globals but no collector.
	mid := Stats()
	New(arch.CROPHE64, DefaultOptions(DataflowCROPHE)).Run(w)
	if Stats().Candidates == mid.Candidates {
		t.Fatal("always-on atomics stopped counting without a collector")
	}
}

// cyclicGraph returns a two-operator graph with a dependency cycle.
func cyclicGraph() *graph.Graph {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 2, N: 64}
	a := g.AddNode(graph.OpEWAdd, "a", shape)
	b := g.AddNode(graph.OpEWMul, "b", shape)
	g.Connect(a, b)
	g.Connect(b, a)
	return g
}

// danglingGraph returns a graph with an edge to a node outside g.Nodes,
// whose ID is out of the graph's range: a search of it panics.
func danglingGraph() *graph.Graph {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 2, N: 64}
	a := g.AddNode(graph.OpEWAdd, "a", shape)
	g.Connect(a, &graph.Node{ID: 7, Kind: graph.OpEWMul, Name: "outside", Out: shape})
	return g
}

// oneSegment wraps g as a one-segment workload.
func oneSegment(name string, g *graph.Graph) *workload.Workload {
	return &workload.Workload{Name: name, Params: testParams, DataParallel: 1,
		Segments: []workload.Segment{{Name: "loop", G: g, Count: 1}}}
}

// TestScheduleReturnsCycleError checks that both dataflows reject a
// cyclic segment with a *CycleError naming it, whether or not the
// search is cut.
func TestScheduleReturnsCycleError(t *testing.T) {
	w := oneSegment("cyclic", cyclicGraph())
	for _, df := range []Dataflow{DataflowMAD, DataflowCROPHE} {
		for _, budget := range []int{0, 1} {
			opt := DefaultOptions(df)
			opt.SearchBudget = budget
			_, err := New(arch.CROPHE64, opt).Schedule(context.Background(), w)
			var ce *CycleError
			if !errors.As(err, &ce) || ce.Segment != "loop" || ce.Ordered != 0 || ce.Total != 2 {
				t.Errorf("%s budget %d: got %v, want a *CycleError for segment loop, 0 of 2 nodes", df, budget, err)
			}
		}
	}
}

// TestSegmentMemoizationReleasesFailedSearches checks that a segment search
// that fails or panics fails only its own call: concurrent and later
// calls of the same segment on one Scheduler search it again and fail
// the same way, none waiting on another. A call whose two workloads
// share the failing graph returns its error and serves no hit.
func TestSegmentMemoizationReleasesFailedSearches(t *testing.T) {
	for _, c := range []struct {
		w      *workload.Workload
		panics bool // the search panics rather than returning an error
	}{
		{oneSegment("cyclic", cyclicGraph()), false},
		{oneSegment("dangling", danglingGraph()), true},
	} {
		w := c.w
		for _, df := range []Dataflow{DataflowMAD, DataflowCROPHE} {
			s := New(arch.CROPHE64, DefaultOptions(df))
			for round := 0; round < 2; round++ {
				const callers = 4
				failed := make(chan bool, callers)
				for k := 0; k < callers; k++ {
					go func() {
						defer func() {
							if r := recover(); r != nil {
								failed <- c.panics
							}
						}()
						_, err := s.Schedule(context.Background(), w)
						failed <- err != nil && !c.panics
					}()
				}
				for k := 0; k < callers; k++ {
					select {
					case ok := <-failed:
						if !ok {
							t.Fatalf("%s %s round %d: a search did not fail the way it should", w.Name, df, round)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s %s round %d: a search waited on a failed search", w.Name, df, round)
					}
				}
			}
		}
	}

	g := cyclicGraph()
	ws := []*workload.Workload{oneSegment("first", g), oneSegment("second", g)}
	for _, df := range []Dataflow{DataflowMAD, DataflowCROPHE} {
		before := Stats()
		_, err := New(arch.CROPHE64, DefaultOptions(df)).scheduleAll(context.Background(), ws)
		d := Stats()
		var ce *CycleError
		if !errors.As(err, &ce) {
			t.Errorf("%s: two workloads sharing a cyclic graph gave %v, want a *CycleError", df, err)
		}
		if hits, misses := d.CacheHits-before.CacheHits, d.CacheMisses-before.CacheMisses; hits != 0 || misses != 1 {
			t.Errorf("%s: %d hits and %d misses, want 0 and 1", df, hits, misses)
		}
	}
}

// TestDRAMUtilizationOneDefinition: for every paper design, CROPHE-p
// included, Util.DRAM is the schedule's DRAM traffic over what the
// chip's DRAM bandwidth moves in the schedule's time — one definition,
// whatever the cluster count.
func TestDRAMUtilizationOneDefinition(t *testing.T) {
	for _, pair := range []struct{ cro, base *arch.HWConfig }{
		{arch.CROPHE64, arch.ARK},
		{arch.CROPHE36, arch.SHARP},
	} {
		params := arch.ParamsFor(pair.cro)
		for _, name := range workload.Names() {
			factory, _ := workload.Lookup(name, params)
			for _, d := range PaperDesigns(pair.cro, pair.base) {
				s := d.Evaluate(factory)
				want := clampFrac(s.Traffic.DRAM / (d.HW.DRAMBandwidthTBs * 1e12 * s.TimeSec))
				if want <= 0 || math.Abs(s.Util.DRAM-want) > 1e-9*want {
					t.Errorf("%s %s: Util.DRAM %.6f, want traffic over bandwidth × time %.6f",
						d.Name, name, s.Util.DRAM, want)
				}
			}
		}
	}
}

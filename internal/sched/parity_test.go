package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/workload"
)

// parityGraphs returns every segment graph of bootstrapping and HELR,
// plain and NTT-decomposed.
func parityGraphs() map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	for _, w := range []*workload.Workload{
		workload.Bootstrapping(testParams, workload.RotHybrid, 4),
		workload.HELR(testParams, workload.RotHoisted, 0),
	} {
		for _, wl := range []*workload.Workload{w, w.DecomposeNTTs()} {
			for i, seg := range wl.Segments {
				out[fmt.Sprintf("%s/%d/%s/%d", w.Name, len(out), seg.Name, i)] = seg.G
			}
		}
	}
	return out
}

// TestPriceGroupMatchesCostGroup checks, for every contiguous window of
// up to MaxGroupSize nodes in the scheduler's order, that the DP's
// incremental price-only cost is bit-identical to the GroupSchedule
// materialised from scratch. The two pricers price the windows in
// opposite orders, so pricer state left by one candidate cannot leak
// into the next unnoticed. The same test
// pins the ID-indexed graph orders to map-based references.
func TestPriceGroupMatchesCostGroup(t *testing.T) {
	graphs := parityGraphs()
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, hw := range []*arch.HWConfig{arch.CROPHE64, arch.SHARP} {
		for _, df := range []Dataflow{DataflowMAD, DataflowCROPHE} {
			for _, uniform := range []bool{false, true} {
				opt := DefaultOptions(df)
				opt.UniformAlloc = uniform
				var pricer, builder groupPricer
				for _, name := range names {
					g := graphs[name]
					nodes := g.ComputeNodes()
					if df == DataflowCROPHE {
						var err error
						if nodes, err = new(orderScratch).auxAffinityOrder(g); err != nil {
							t.Fatal(err)
						}
					}
					// Price the windows as the DP does: each row's groups
					// grow by one operator at a time.
					var windows [][]*graph.Node
					var prices []GroupSchedule
					for i := range nodes {
						p := pricer.newGroup(hw, opt)
						for k := 1; k <= opt.MaxGroupSize && i+k <= len(nodes); k++ {
							p.add(nodes[i+k-1])
							windows = append(windows, nodes[i:i+k])
							prices = append(prices, p.cost())
						}
					}
					for i := len(windows) - 1; i >= 0; i-- {
						w, p := windows[i], prices[i]
						gs := builder.costGroup(hw, opt, w)
						ref := refCostGroup(hw, opt, w)
						if !sameCost(p, gs) || !sameCost(gs, ref) || !sameAlloc(gs, ref) {
							t.Fatalf("%s %s uniform=%v %s window %d+%d:\nprice        %+v\nmaterialised %+v\nreference    %+v",
								hw.Name, df, uniform, name, w[0].ID, len(w), p, gs, ref)
						}
					}
				}
			}
		}
	}

	for _, name := range names {
		g := graphs[name]
		checkOrders(t, name, g)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		checkOrders(t, fmt.Sprintf("random/%d", i), randomDAG(rng))
	}
}

// sameCost reports whether two groups have bit-identical costs.
func sameCost(a, b GroupSchedule) bool {
	bits := func(g GroupSchedule) [8]uint64 {
		return [8]uint64{
			math.Float64bits(g.TimeSec), math.Float64bits(g.Compute), math.Float64bits(g.ResidentBytes),
			math.Float64bits(g.Traffic.DRAM), math.Float64bits(g.Traffic.SRAM),
			math.Float64bits(g.Traffic.NoC), math.Float64bits(g.Traffic.Transpose), uint64(g.Pipelined),
		}
	}
	return bits(a) == bits(b)
}

// sameAlloc reports whether two groups have the same PE allocation, nil
// (no fine-grained allocation) included.
func sameAlloc(a, b GroupSchedule) bool {
	return (a.PEAlloc == nil) == (b.PEAlloc == nil) && slices.Equal(a.PEAlloc, b.PEAlloc)
}

// refCostGroup is the map-based group cost model that the DP's
// allocation-free pricer replaced, kept as the reference it must match.
func refCostGroup(hw *arch.HWConfig, opt Options, nodes []*graph.Node) GroupSchedule {
	inGroup := map[*graph.Node]bool{}
	for _, n := range nodes {
		inGroup[n] = true
	}
	fine := opt.Dataflow == DataflowCROPHE
	gs := GroupSchedule{Nodes: nodes}
	var totalLoad float64
	classLoad := map[arch.OpClass]float64{}
	for _, n := range nodes {
		load := effLoad(n)
		totalLoad += load
		classLoad[opClassOf(n.Kind)] += load
	}
	freq := hw.FreqGHz * 1e9
	lanesTotal := float64(hw.TotalLanes())
	var computeSec float64
	switch {
	case !hw.Homogeneous:
		for c, load := range classLoad {
			share := hw.FUShare[c]
			if share <= 0 {
				share = 0.05
			}
			if t := load / (lanesTotal * share * effSpecialized * freq); t > computeSec {
				computeSec = t
			}
		}
	case fine && len(nodes) > 1:
		usable := min(len(nodes)*perOpPECap, hw.NumPEs)
		allocs := make([]int, len(nodes))
		if opt.UniformAlloc {
			for i := range allocs {
				allocs[i] = max(usable/len(nodes), 1)
			}
		} else {
			allocs = allocateFor(nodes, usable)
		}
		gs.PEAlloc = allocs
		for i, n := range nodes {
			load := effLoad(n)
			if load == 0 {
				continue
			}
			if t := load / (float64(allocs[i]) * float64(hw.Lanes) * effPipelined * freq); t > computeSec {
				computeSec = t
			}
		}
	default:
		computeSec = totalLoad / (lanesTotal * effSoloHomogeneous * freq)
	}
	gs.Compute = computeSec
	wb := hw.WordBytes()
	var tr Traffic
	transCapBytes := hw.TransposeMB * 1e6
	for _, n := range nodes {
		for _, e := range n.InEdges {
			bytes := e.Shape.Bytes(wb)
			if e.Class != graph.Intermediate {
				continue
			}
			switch {
			case !e.From.Kind.IsCompute():
				tr.SRAM += bytes
			case !inGroup[e.From]:
			case fine && canPipeline(e, hw):
				tr.NoC += bytes
				gs.Pipelined++
				gs.ResidentBytes += perLimbBytes(e.Shape, wb)
			case !hw.Homogeneous:
				tr.NoC += bytes
				gs.ResidentBytes += perLimbBytes(e.Shape, wb)
			case e.From.Kind == graph.OpTranspose || e.To.Kind == graph.OpTranspose:
				if perLimbBytes(e.Shape, wb) <= transCapBytes && transCapBytes > 0 {
					tr.Transpose += bytes * spillRoundTrip
				} else {
					tr.SRAM += bytes * spillRoundTrip
					gs.ResidentBytes += bytes
				}
			case bytes <= hw.SRAMCapacityMB*1e6*interSpillFrac:
				tr.SRAM += bytes * spillRoundTrip
				gs.ResidentBytes += bytes
			default:
				tr.DRAM += bytes * spillRoundTrip
			}
		}
		for _, e := range n.OutEdges {
			if e.Class == graph.Intermediate && !e.To.Kind.IsCompute() {
				tr.SRAM += e.Shape.Bytes(wb)
			}
		}
	}
	gs.Traffic = tr
	gs.TimeSec = maxOf(computeSec,
		tr.DRAM/(hw.DRAMBandwidthTBs*1e12),
		tr.SRAM/(hw.SRAMBandwidthTBs*1e12),
		tr.NoC/nocBandwidth(hw),
		tr.Transpose/(hw.SRAMBandwidthTBs*1e12*0.5))
	return gs
}

func checkOrders(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	if got, want := ids(g.Topological()), ids(refTopological(g)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Topological %v, reference %v", name, got, want)
	}
	got, err := new(orderScratch).auxAffinityOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ids(got), ids(refAuxAffinityOrder(g)); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("%s: auxAffinityOrder %v, reference %v", name, a, b)
	}
}

// randomDAG builds a graph whose node IDs are not a topological order:
// edges run along a random permutation, so ready sets hold many nodes
// out of ID order and aux consumers compete on score ties.
func randomDAG(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 2, N: 64}
	n := 5 + rng.Intn(40)
	nodes := make([]*graph.Node, n)
	for i := range nodes {
		nodes[i] = g.AddNode(graph.OpKind(rng.Intn(int(graph.OpTranspose)+1)), "op", shape)
	}
	consts := []*graph.Node{
		g.AddNode(graph.OpConst, "evk:a", shape),
		g.AddNode(graph.OpConst, "pt:b", shape),
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		for e := rng.Intn(3); e > 0; e-- {
			g.Connect(nodes[perm[rng.Intn(i)]], nodes[perm[i]])
		}
		if rng.Intn(3) == 0 {
			c := consts[rng.Intn(len(consts))]
			g.ConnectAux(c, nodes[perm[i]], c.Name)
		}
	}
	return g
}

func ids(ns []*graph.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

// refTopological is the map-and-sort Kahn's algorithm that
// Graph.Topological replaced: smallest ID first among ready nodes.
func refTopological(g *graph.Graph) []*graph.Node {
	indeg := map[*graph.Node]int{}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		indeg[n] = len(n.InEdges)
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	var out []*graph.Node
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID })
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		for _, e := range n.OutEdges {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return out
}

// refAuxAffinityOrder is the map-and-sort aux-affinity order that
// auxAffinityOrder replaced.
func refAuxAffinityOrder(g *graph.Graph) []*graph.Node {
	indeg := map[*graph.Node]int{}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		indeg[n] = len(n.InEdges)
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	byID := func() { sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID }) }
	byID()
	var out, recent []*graph.Node
	lastAux := ""
	for len(ready) > 0 {
		idx, bestScore := 0, -1
		for i, n := range ready {
			score := 0
			for _, e := range n.InEdges {
				if e.Class != graph.Intermediate {
					continue
				}
				for _, r := range recent {
					if e.From == r {
						score += 2
					}
				}
			}
			if lastAux != "" && primaryAux(n) == lastAux {
				score++
			}
			if score > bestScore {
				bestScore, idx = score, i
			}
		}
		n := ready[idx]
		ready = append(ready[:idx], ready[idx+1:]...)
		if n.Kind.IsCompute() {
			out = append(out, n)
			lastAux = primaryAux(n)
			recent = append(recent, n)
			if len(recent) > 6 {
				recent = recent[1:]
			}
		}
		for _, e := range n.OutEdges {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
		byID()
	}
	return out
}

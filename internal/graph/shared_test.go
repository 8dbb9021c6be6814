package graph_test

import (
	"testing"

	"crophe/internal/baseline"
	"crophe/internal/graph"
	"crophe/internal/sim"
	"crophe/internal/workload"
)

// TestSharedGraphsStayUnchanged evaluates one Figure 9 cell and
// simulates each design's winner, then checks that every graph the
// cell's factory handed out, and its rewrite, still matches a snapshot
// taken before the run: no scheduler or simulator pass changed a shared
// graph.
func TestSharedGraphsStayUnchanged(t *testing.T) {
	p := baseline.Pairings()[1]
	f := p.WorkloadFactories()["bootstrapping"]
	before := map[*graph.Graph]string{}
	for _, c := range []struct {
		mode workload.RotMode
		r    int
	}{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}, {workload.RotHybrid, 2}, {workload.RotHybrid, 4}, {workload.RotHybrid, 8}} {
		for _, seg := range f(c.mode, c.r).Segments {
			for _, g := range []*graph.Graph{seg.G, seg.G.Decomposed()} {
				before[g] = graph.Snapshot(g)
			}
		}
	}
	for _, d := range p.Designs() {
		s := d.Evaluate(f)
		if _, err := sim.New(d.HW).SimulateSchedule(d.Prepare(f(s.Rot, s.RHyb)), s); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
	}
	for g, snap := range before {
		if graph.Snapshot(g) != snap {
			t.Errorf("graph of %d nodes changed during the run", len(g.Nodes))
		}
	}
}

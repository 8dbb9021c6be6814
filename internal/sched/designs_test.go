package sched_test

import (
	"testing"

	"crophe/internal/baseline"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// TestEvaluateRecordsWinner checks, on every Figure 9 cell, that the
// candidate a schedule records is the one it was searched over: one
// Run of the design over that candidate's prepared graph reproduces the
// schedule's time bit for bit.
func TestEvaluateRecordsWinner(t *testing.T) {
	for _, p := range baseline.Pairings() {
		factories := p.WorkloadFactories()
		for _, wl := range baseline.WorkloadNames() {
			f := factories[wl]
			for _, d := range p.Designs() {
				s := d.Evaluate(f)
				if !d.HybridRot && s.Rot == workload.RotHybrid {
					t.Errorf("%s %s: hybrid rotation picked by a design without it", d.Name, wl)
				}
				again := sched.New(d.HW, d.Options(0)).Run(d.Prepare(f(s.Rot, s.RHyb)))
				if again.TimeSec != s.TimeSec {
					t.Errorf("%s %s: %v/%d re-runs to %v s, Evaluate gave %v s",
						d.Name, wl, s.Rot, s.RHyb, again.TimeSec, s.TimeSec)
				}
			}
		}
	}
}

// TestSegmentMemoizationKeepsOwnNodes runs the rotation candidates of
// every Figure 9 cell and design through one Scheduler together, as
// Evaluate does, and requires every group node of every candidate
// schedule to be a node of that candidate's own segment graph: a memo
// hit must not hand a candidate the groups of another graph.
func TestSegmentMemoizationKeepsOwnNodes(t *testing.T) {
	var total, foreign int
	for _, p := range baseline.Pairings() {
		factories := p.WorkloadFactories()
		for _, wl := range baseline.WorkloadNames() {
			for _, d := range p.Designs() {
				ws, ss := d.EvaluateAll(factories[wl])
				for k, s := range ss {
					total++
					if seg, ok := ownNodes(ws[k], s); !ok {
						foreign++
						t.Errorf("%s %s candidate %d: segment %s reports nodes of another graph", d.Name, wl, k, seg)
					}
				}
			}
		}
	}
	if foreign > 0 {
		t.Logf("%d of %d candidate schedules report nodes of another graph", foreign, total)
	}
}

// ownNodes reports whether every group node of s is a node of w's graph
// for its segment, naming the first segment where one is not.
func ownNodes(w *workload.Workload, s *sched.Schedule) (string, bool) {
	for i, seg := range s.Segments {
		g := w.Segments[i].G
		for _, gs := range seg.Groups {
			for _, n := range gs.Nodes {
				if n.ID >= len(g.Nodes) || g.Nodes[n.ID] != n {
					return seg.Name, false
				}
			}
		}
	}
	return "", true
}

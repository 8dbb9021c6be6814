package sched_test

import (
	"testing"

	"crophe/internal/baseline"
	"crophe/internal/graph"
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
// schedule to be a node of that candidate's own segment graph: a
// segment served by another's search must not get another graph's
// groups.
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

// TestSegmentMemoizationSearchesEachKeyOnce checks, on every Figure 9
// cell's CROPHE designs, that Evaluate searches each distinct segment
// key (graph, cluster count, repetition count) of its prepared
// candidates once and serves every other segment as a hit.
func TestSegmentMemoizationSearchesEachKeyOnce(t *testing.T) {
	type key struct {
		g               *graph.Graph
		clusters, count int
	}
	for _, p := range baseline.Pairings() {
		factories := p.WorkloadFactories()
		for _, wl := range baseline.WorkloadNames() {
			for _, d := range p.Designs() {
				if d.Dataflow != sched.DataflowCROPHE {
					continue
				}
				ws, ss := d.EvaluateAll(factories[wl])
				keys := map[key]bool{}
				segs := 0
				for k, w := range ws {
					for _, seg := range w.Segments {
						keys[key{seg.G, ss[k].Clusters, seg.Count}] = true
						segs++
					}
				}
				before := sched.Stats()
				d.Evaluate(factories[wl])
				after := sched.Stats()
				misses, hits := after.CacheMisses-before.CacheMisses, after.CacheHits-before.CacheHits
				if misses != uint64(len(keys)) || hits != uint64(segs-len(keys)) {
					t.Errorf("%s %s: %d misses and %d hits, want %d and %d",
						d.Name, wl, misses, hits, len(keys), segs-len(keys))
				}
			}
		}
	}
}

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

package sched_test

import (
	"testing"

	"crophe/internal/baseline"
)

// BenchmarkDesignEvaluateCold schedules one cold Figure 9 cell (the four
// paper designs of ARK × bootstrapping), each through Design.Evaluate
// with the fresh Scheduler it creates, so no segment memo carries over
// between iterations.
func BenchmarkDesignEvaluateCold(b *testing.B) {
	p := baseline.Pairings()[1]
	factory := p.WorkloadFactories()["bootstrapping"]
	designs := p.Designs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			if s := d.Evaluate(factory); s.TimeSec <= 0 {
				b.Fatalf("%s: schedule time %v", d.Name, s.TimeSec)
			}
		}
	}
}

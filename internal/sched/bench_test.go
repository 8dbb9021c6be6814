package sched_test

import (
	"testing"

	"crophe/internal/baseline"
)

// BenchmarkDesignEvaluateCold schedules one cold Figure 9 cell (the four
// paper designs of ARK × bootstrapping), each through Design.Evaluate
// with the fresh Scheduler it creates. Each iteration takes a new
// workload factory, so neither segment graphs nor segment schedules
// carry over between iterations: every iteration pays the builds and
// rewrites one cell pays.
func BenchmarkDesignEvaluateCold(b *testing.B) {
	p := baseline.Pairings()[1]
	designs := p.Designs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		factory := p.WorkloadFactories()["bootstrapping"]
		for _, d := range designs {
			if s := d.Evaluate(factory); s.TimeSec <= 0 {
				b.Fatalf("%s: schedule time %v", d.Name, s.TimeSec)
			}
		}
	}
}

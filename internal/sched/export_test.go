package sched

import "crophe/internal/workload"

// EvaluateAll runs the design's rotation candidates through one
// Scheduler together, as Evaluate does, and returns each candidate's
// prepared workload and schedule, in candidate order.
func (d Design) EvaluateAll(factory WorkloadFactory) ([]*workload.Workload, []*Schedule) {
	_, ws := d.candidates(factory)
	return ws, New(d.HW, d.Options(0)).runAll(ws)
}

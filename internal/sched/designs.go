package sched

import (
	"time"

	"crophe/internal/arch"
	"crophe/internal/parallel"
	"crophe/internal/workload"
)

// Design is one evaluated design point of the paper: a hardware
// configuration plus a scheduling policy and the feature flags of the
// Figure 11 ablation.
type Design struct {
	Name      string
	HW        *arch.HWConfig
	Dataflow  Dataflow
	NTTDec    bool // §V-B NTT decomposition
	HybridRot bool // §V-C hybrid rotation
	Clusters  int  // >1 enables CROPHE-p partitioning
}

// WorkloadFactory builds a workload for a given rotation structure (see
// workload.Factory).
type WorkloadFactory = workload.Factory

// rHybCandidates is the stride sweep for hybrid rotation.
var rHybCandidates = []int{2, 4, 8}

// Options returns the scheduler options of one run of the design: the
// dataflow defaults, the CROPHE-p cluster count, and — when deadline is
// positive — the deterministic anytime candidate budget of
// budgetForDeadline, so runs whose deadlines land in the same
// power-of-two bucket get bit-identical schedules.
func (d Design) Options(deadline time.Duration) Options {
	opt := DefaultOptions(d.Dataflow)
	if d.Clusters > 1 {
		opt.Clusters = d.Clusters
	}
	if deadline > 0 {
		opt.SearchBudget = budgetForDeadline(deadline)
	}
	return opt
}

// Prepare applies the design's graph rewrites to w: the §V-B four-step
// NTT decomposition when NTTDec is set, w itself otherwise.
func (d Design) Prepare(w *workload.Workload) *workload.Workload {
	if d.NTTDec {
		return w.DecomposeNTTs()
	}
	return w
}

// Evaluate schedules the design over the best rotation structure it is
// allowed to use and returns the winning schedule:
//
//   - MAD and Base pick the better of Min-KS and Hoisting (the paper notes
//     Min-KS wins with large SRAM, Hoisting with small).
//   - HybridRot additionally sweeps r_Hyb.
//   - Each candidate graph goes through Prepare before scheduling.
//
// The winner records its candidate in Rot and RHyb. The candidates'
// graphs are built concurrently and their segments searched together on
// one Scheduler, so a segment graph the factory hands to several of them
// is searched once. The winner is picked in candidate order, the first
// of equally fast candidates winning.
func (d Design) Evaluate(factory WorkloadFactory) *Schedule {
	cands, ws := d.candidates(factory)
	var best *Schedule
	for i, res := range New(d.HW, d.Options(0)).runAll(ws) {
		if best == nil || res.TimeSec < best.TimeSec {
			best = res
			best.Rot, best.RHyb = cands[i].mode, cands[i].r
		}
	}
	// The winner is reported under the name of the first (Min-KS)
	// candidate's workload.
	best.Workload = ws[0].Name
	return best
}

// candidate is one rotation structure Evaluate searches.
type candidate struct {
	mode workload.RotMode
	r    int
}

// candidates returns the rotation structures the design may use, in
// Evaluate's order, and their prepared workloads, built concurrently.
func (d Design) candidates(factory WorkloadFactory) ([]candidate, []*workload.Workload) {
	cands := []candidate{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}}
	if d.HybridRot {
		for _, r := range rHybCandidates {
			cands = append(cands, candidate{workload.RotHybrid, r})
		}
	}
	ws := make([]*workload.Workload, len(cands))
	parallel.ClaimEach(parallel.Workers(), len(cands), func(i int) bool {
		ws[i] = d.Prepare(factory(cands[i].mode, cands[i].r))
		return true
	})
	return cands, ws
}

// PaperDesigns returns the four Figure 9 design points for a CROPHE
// variant paired against a baseline accelerator.
func PaperDesigns(croHW, baseHW *arch.HWConfig) []Design {
	return []Design{
		{Name: baseHW.Name + "+MAD", HW: baseHW, Dataflow: DataflowMAD},
		{Name: croHW.Name + "+MAD", HW: croHW, Dataflow: DataflowMAD},
		{Name: croHW.Name, HW: croHW, Dataflow: DataflowCROPHE, NTTDec: true, HybridRot: true},
		{Name: croHW.Name + "-p", HW: croHW, Dataflow: DataflowCROPHE, NTTDec: true, HybridRot: true, Clusters: 4},
	}
}

// AblationDesigns returns the Figure 11 ladder on a CROPHE variant:
// MAD → Base → +NTTDec → +HybRot → all.
func AblationDesigns(croHW *arch.HWConfig) []Design {
	return []Design{
		{Name: "MAD", HW: croHW, Dataflow: DataflowMAD},
		{Name: "Base", HW: croHW, Dataflow: DataflowCROPHE},
		{Name: "NTTDec", HW: croHW, Dataflow: DataflowCROPHE, NTTDec: true},
		{Name: "HybRot", HW: croHW, Dataflow: DataflowCROPHE, HybridRot: true},
		{Name: "CROPHE", HW: croHW, Dataflow: DataflowCROPHE, NTTDec: true, HybridRot: true},
	}
}

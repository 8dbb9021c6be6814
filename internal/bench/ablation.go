package bench

import (
	"fmt"
	"strings"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// The ablation studies flagged in DESIGN.md: each isolates one design
// choice of the paper and quantifies its contribution on the
// bootstrapping workload (SHARP parameters, CROPHE-36).

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Study   string
	Setting string
	TimeSec float64
	DRAMGB  float64
}

// ablationDesign is the CROPHE design point (without the r_Hyb sweep)
// whose knobs the ablations perturb one at a time.
func ablationDesign() sched.Design {
	return sched.Design{HW: arch.CROPHE36.WithSRAM(90), Dataflow: sched.DataflowCROPHE, NTTDec: true}
}

// ablationFactory returns the bootstrapping factory (SHARP parameters)
// the studies share, so each segment graph is built once for all four.
func ablationFactory() workload.Factory {
	f, _ := workload.Lookup("bootstrapping", arch.ParamsSHARP)
	return f
}

// AblateGroupSize sweeps the spatial-group size bound (the search breadth
// of §V-D): 1 disables spatial pipelining entirely, the paper's setting
// is 7–10.
func AblateGroupSize(f workload.Factory) []AblationRow {
	var rows []AblationRow
	d := ablationDesign()
	w := d.Prepare(f(workload.RotHoisted, 0))
	for _, size := range []int{1, 2, 4, 8, 12} {
		opt := d.Options(0)
		opt.MaxGroupSize = size
		res := sched.New(d.HW, opt).Run(w)
		rows = append(rows, AblationRow{
			Study:   "group-size",
			Setting: fmt.Sprintf("max %d ops/group", size),
			TimeSec: res.TimeSec,
			DRAMGB:  res.Traffic.DRAM / 1e9,
		})
	}
	return rows
}

// AblateNTTSplit compares four-step split choices N = N1×N2: the balanced
// split against skewed ones (§V-D: "N1 and N2 should not be too small").
func AblateNTTSplit(f workload.Factory) []AblationRow {
	splits := []struct {
		name  string
		split func(n int) (int, int)
	}{
		{"balanced (N1≈N2)", graph.BalancedSplit},
		{"skew 4:1", func(n int) (int, int) {
			n1, n2 := graph.BalancedSplit(n)
			for n1/2 >= 2 && n2*2 <= n {
				n1 /= 2
				n2 *= 2
				if n2 >= 4*n1 {
					break
				}
			}
			return n1, n2
		}},
		{"minimal N1=2", func(n int) (int, int) { return 2, n / 2 }},
	}
	var rows []AblationRow
	d := ablationDesign()
	for _, sp := range splits {
		base := f(workload.RotHoisted, 0)
		w := &workload.Workload{Name: base.Name, Params: base.Params, DataParallel: base.DataParallel}
		for _, seg := range base.Segments {
			w.Segments = append(w.Segments, workload.Segment{
				Name:  seg.Name,
				G:     graph.DecomposeNTTs(seg.G, sp.split),
				Count: seg.Count,
			})
		}
		res := sched.New(d.HW, d.Options(0)).Run(w)
		rows = append(rows, AblationRow{
			Study:   "ntt-split",
			Setting: sp.name,
			TimeSec: res.TimeSec,
			DRAMGB:  res.Traffic.DRAM / 1e9,
		})
	}
	return rows
}

// AblateRHyb sweeps the hybrid-rotation stride between the two endpoints
// of Figure 8: r_Hyb=1 degenerates to Min-KS-only structure, large r to
// Hoisting.
func AblateRHyb(f workload.Factory) []AblationRow {
	var rows []AblationRow
	d := ablationDesign()
	cases := []struct {
		name string
		mode workload.RotMode
		r    int
	}{
		{"min-ks (endpoint)", workload.RotMinKS, 0},
		{"hybrid r=2", workload.RotHybrid, 2},
		{"hybrid r=4", workload.RotHybrid, 4},
		{"hybrid r=8", workload.RotHybrid, 8},
		{"hoisting (endpoint)", workload.RotHoisted, 0},
	}
	for _, c := range cases {
		res := sched.New(d.HW, d.Options(0)).Run(d.Prepare(f(c.mode, c.r)))
		rows = append(rows, AblationRow{
			Study:   "r-hyb",
			Setting: c.name,
			TimeSec: res.TimeSec,
			DRAMGB:  res.Traffic.DRAM / 1e9,
		})
	}
	return rows
}

// AblatePEAllocation compares §IV-B's load-proportional PE allocation
// against a uniform split.
func AblatePEAllocation(f workload.Factory) []AblationRow {
	var rows []AblationRow
	d := ablationDesign()
	w := d.Prepare(f(workload.RotHoisted, 0))
	for _, uniform := range []bool{false, true} {
		opt := d.Options(0)
		opt.UniformAlloc = uniform
		name := "proportional to load (§IV-B)"
		if uniform {
			name = "uniform split"
		}
		res := sched.New(d.HW, opt).Run(w)
		rows = append(rows, AblationRow{
			Study:   "pe-alloc",
			Setting: name,
			TimeSec: res.TimeSec,
			DRAMGB:  res.Traffic.DRAM / 1e9,
		})
	}
	return rows
}

// Ablations runs every ablation study over one shared workload factory.
func Ablations() []AblationRow {
	f := ablationFactory()
	var rows []AblationRow
	rows = append(rows, AblateGroupSize(f)...)
	rows = append(rows, AblateNTTSplit(f)...)
	rows = append(rows, AblateRHyb(f)...)
	rows = append(rows, AblatePEAllocation(f)...)
	return rows
}

// RenderAblations formats the ablation table.
func RenderAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATIONS — design choices of DESIGN.md (bootstrapping, CROPHE-36 @ 90 MB)\n")
	fmt.Fprintf(&b, "%-12s %-28s %10s %10s\n", "Study", "Setting", "Time (ms)", "DRAM (GB)")
	last := ""
	for _, r := range rows {
		if r.Study != last {
			if last != "" {
				fmt.Fprintln(&b)
			}
			last = r.Study
		}
		fmt.Fprintf(&b, "%-12s %-28s %10.3f %10.2f\n", r.Study, r.Setting, r.TimeSec*1e3, r.DRAMGB)
	}
	return b.String()
}

// Package bench regenerates every table and figure of the paper's
// evaluation section. Each experiment returns structured rows and can
// render itself as text; cmd/crophe-bench and the repository-level
// benchmarks drive them.
package bench

import (
	"fmt"
	"strings"

	"crophe/internal/arch"
	"crophe/internal/baseline"
	"crophe/internal/parallel"
	"crophe/internal/sched"
	"crophe/internal/sim"
	"crophe/internal/workload"
)

// Table1 renders the hardware configurations (Table I).
func Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE I — HARDWARE CONFIGURATIONS\n")
	fmt.Fprintf(&b, "%-12s %6s %6s %7s %7s %9s %9s %9s %10s\n",
		"Config", "Word", "GHz", "Lanes", "PEs", "DRAM TB/s", "SRAM TB/s", "SRAM MB", "Area mm²")
	for _, c := range arch.Table1() {
		area := arch.ChipModel(c).Total().AreaMM2
		fmt.Fprintf(&b, "%-12s %6d %6.1f %7d %7d %9.1f %9.1f %9.0f %10.1f\n",
			c.Name, c.WordBits, c.FreqGHz, c.Lanes, c.NumPEs,
			c.DRAMBandwidthTBs, c.SRAMBandwidthTBs, c.SRAMCapacityMB, area)
	}
	return b.String()
}

// Table2 renders the CROPHE-36 area/power breakdown (Table II).
func Table2() string {
	pe := arch.PEModel(arch.CROPHE36)
	chip := arch.ChipModel(arch.CROPHE36)
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE II — AREA AND POWER BREAKDOWN OF CROPHE-36\n")
	fmt.Fprintf(&b, "%-32s %14s %10s\n", "Component", "Area (µm²)", "Power (mW)")
	for _, c := range []arch.Component{pe.Multipliers, pe.AddersSubs, pe.RegFile, pe.InterLane, pe.Total()} {
		fmt.Fprintf(&b, "%-32s %14.2f %10.2f\n", c.Name, c.AreaMM2, c.PowerW)
	}
	fmt.Fprintf(&b, "%-32s %14s %10s\n", "", "Area (mm²)", "Power (W)")
	for _, c := range []arch.Component{chip.PEs, chip.NoC, chip.GlobalBuf, chip.Transpose, chip.HBMPHY, chip.Total()} {
		fmt.Fprintf(&b, "%-32s %14.2f %10.2f\n", c.Name, c.AreaMM2, c.PowerW)
	}
	return b.String()
}

// Table3 renders the parameter sets (Table III).
func Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE III — PARAMETER SETS\n")
	fmt.Fprintf(&b, "%-14s %6s %4s %6s %5s %6s\n", "Set", "log2N", "L", "Lboot", "dnum", "alpha")
	for _, p := range arch.Table3() {
		fmt.Fprintf(&b, "%-14s %6d %4d %6d %5d %6d\n", p.Name, p.LogN, p.L, p.LBoot, p.DNum, p.Alpha)
	}
	return b.String()
}

// Fig9Row is one bar of Figure 9: a design's time and speedup over the
// baseline+MAD reference, per workload.
type Fig9Row struct {
	Pairing  string
	Workload string
	Design   string
	TimeSec  float64
	Speedup  float64 // vs baseline+MAD on the same workload
}

// Figure9 runs the overall comparison. With fast=true only the ARK and
// SHARP pairings and the bootstrapping/ResNet-20 workloads run (for
// tests); the full run covers all four pairings and workloads.
//
// The design×workload evaluations are independent, so they fan out
// across the worker pool (each backed by the schedule cache); rows come
// back in the same nested pairing→workload→design order as a serial run,
// and speedups are computed afterwards against each group's first design
// (the baseline+MAD reference), so results are deterministic.
func Figure9(fast bool) []Fig9Row {
	pairings := baseline.Pairings()
	names := baseline.WorkloadNames()
	if fast {
		pairings = pairings[1:3] // ARK, SHARP
		names = []string{"bootstrapping", "resnet-20"}
	}
	type job struct {
		pairing  string
		workload string
		wkey     string
		design   sched.Design
		factory  sched.WorkloadFactory
		first    bool // baseline reference of its (pairing, workload) group
	}
	var jobs []job
	for _, p := range pairings {
		factories := p.WorkloadFactories()
		pname := p.Baseline.Name + " vs " + p.CROPHE.Name
		for _, wn := range names {
			for di, d := range p.Designs() {
				jobs = append(jobs, job{
					pairing: pname, workload: wn,
					wkey:   p.Params.Name + "/" + wn,
					design: d, factory: factories[wn], first: di == 0,
				})
			}
		}
	}
	times := make([]float64, len(jobs))
	parallel.For(len(jobs), func(i int) {
		times[i] = evaluateMemo(jobs[i].design, jobs[i].wkey, jobs[i].factory).TimeSec
	})
	rows := make([]Fig9Row, len(jobs))
	var baseTime float64
	for i, j := range jobs {
		if j.first {
			baseTime = times[i]
		}
		rows[i] = Fig9Row{
			Pairing: j.pairing, Workload: j.workload, Design: j.design.Name,
			TimeSec: times[i], Speedup: baseTime / times[i],
		}
	}
	return rows
}

// RenderFig9 formats Figure 9 rows.
func RenderFig9(rows []Fig9Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 9 — OVERALL PERFORMANCE (speedup vs baseline+MAD)\n")
	fmt.Fprintf(&b, "%-24s %-14s %-14s %10s %9s\n", "Pairing", "Workload", "Design", "Time (ms)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-14s %-14s %10.3f %8.2fx\n",
			r.Pairing, r.Workload, r.Design, r.TimeSec*1e3, r.Speedup)
	}
	return b.String()
}

// Table4Row is one row of the resource-utilisation table.
type Table4Row struct {
	Design string
	Util   sched.Utilization
}

// Table4 measures resource utilisation on ResNet-20 via the cycle
// simulator, reproducing the Table IV design set.
func Table4() ([]Table4Row, error) {
	cro := func(name string, hw *arch.HWConfig, clusters int) sched.Design {
		return sched.Design{Name: name, HW: hw, Dataflow: sched.DataflowCROPHE, NTTDec: true, HybridRot: true, Clusters: clusters}
	}
	designs := []sched.Design{
		{Name: "ARK+MAD", HW: arch.ARK, Dataflow: sched.DataflowMAD, Clusters: 1},
		cro("CROPHE-64", arch.CROPHE64, 1),
		cro("CROPHE-p-64", arch.CROPHE64, 4),
		{Name: "SHARP+MAD", HW: arch.SHARP, Dataflow: sched.DataflowMAD, Clusters: 1},
		cro("CROPHE-36", arch.CROPHE36, 1),
		cro("CROPHE-p-36", arch.CROPHE36, 4),
	}
	// The six design points are independent simulator runs; fan out and
	// collect by index so row order matches the design list.
	rows := make([]Table4Row, len(designs))
	errs := make([]error, len(designs))
	parallel.For(len(designs), func(i int) {
		d := designs[i]
		params := arch.ParamsFor(d.HW)
		factory, _ := workload.Lookup("resnet-20", params)
		s := evaluateMemo(d, params.Name+"/resnet-20", factory)
		// Check only that the schedule simulates without error over the
		// graph it was searched on; the simulated result is discarded,
		// and nothing bounds its time against the analytical one. Report
		// the scheduler's utilisation, which knows the traffic
		// provenance.
		w := d.Prepare(factory(s.Rot, s.RHyb))
		if _, err := sim.New(d.HW).SimulateSchedule(w, s); err != nil {
			errs[i] = err
			return
		}
		rows[i] = Table4Row{Design: d.Name, Util: s.Util}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// RenderTable4 formats Table IV.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TABLE IV — RESOURCE UTILISATION ON RESNET-20\n")
	fmt.Fprintf(&b, "%-14s %7s %7s %9s %9s\n", "Design", "PEs", "NoC bw", "SRAM bw", "DRAM bw")
	for _, r := range rows {
		noc := "-"
		if r.Util.NoC > 0 {
			noc = fmt.Sprintf("%.2f%%", r.Util.NoC*100)
		}
		fmt.Fprintf(&b, "%-14s %6.2f%% %7s %8.2f%% %8.2f%%\n",
			r.Design, r.Util.PE*100, noc, r.Util.SRAM*100, r.Util.DRAM*100)
	}
	return b.String()
}

// Fig10Row is one point of the SRAM sweep.
type Fig10Row struct {
	Pairing  string
	Workload string
	SRAMMB   float64
	Baseline float64 // seconds
	CROPHE   float64
	CROPHEP  float64
	Speedup  float64 // baseline / CROPHE
}

// Figure10 sweeps the global buffer capacity (Figure 10). fast restricts
// to bootstrapping on the SHARP pairing.
func Figure10(fast bool) []Fig10Row {
	type sweep struct {
		pairing baseline.Pairing
		sizes   []float64
	}
	sweeps := []sweep{
		{baseline.Pairings()[1], []float64{512, 256, 128, 64}}, // ARK vs CROPHE-64
		{baseline.Pairings()[2], []float64{180, 128, 90, 45}},  // SHARP vs CROPHE-36
	}
	names := baseline.WorkloadNames()
	if fast {
		sweeps = sweeps[1:]
		names = []string{"bootstrapping"}
	}
	// One job per sweep point; the three designs of a point run inside
	// the job (nested parallel calls stay bounded by the shared pool).
	type job struct {
		pairing baseline.Pairing
		wn      string
		factory sched.WorkloadFactory
		size    float64
	}
	var jobs []job
	for _, sw := range sweeps {
		factories := sw.pairing.WorkloadFactories()
		for _, wn := range names {
			for _, size := range sw.sizes {
				jobs = append(jobs, job{sw.pairing, wn, factories[wn], size})
			}
		}
	}
	rows := make([]Fig10Row, len(jobs))
	parallel.For(len(jobs), func(i int) {
		j := jobs[i]
		wkey := j.pairing.Params.Name + "/" + j.wn
		// PaperDesigns 0, 2 and 3: baseline+MAD, CROPHE and CROPHE-p at
		// this SRAM capacity.
		ds := sched.PaperDesigns(j.pairing.CROPHE.WithSRAM(j.size), j.pairing.Baseline.WithSRAM(j.size))
		base := evaluateMemo(ds[0], wkey, j.factory)
		cro := evaluateMemo(ds[2], wkey, j.factory)
		crop := evaluateMemo(ds[3], wkey, j.factory)
		rows[i] = Fig10Row{
			Pairing:  j.pairing.Baseline.Name + " vs " + j.pairing.CROPHE.Name,
			Workload: j.wn,
			SRAMMB:   j.size,
			Baseline: base.TimeSec,
			CROPHE:   cro.TimeSec,
			CROPHEP:  crop.TimeSec,
			Speedup:  base.TimeSec / cro.TimeSec,
		}
	})
	return rows
}

// RenderFig10 formats the sweep.
func RenderFig10(rows []Fig10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 10 — PERFORMANCE AT SMALLER SRAM CAPACITIES\n")
	fmt.Fprintf(&b, "%-22s %-14s %8s %12s %12s %12s %9s\n",
		"Pairing", "Workload", "SRAM MB", "Base (ms)", "CROPHE (ms)", "CROPHE-p", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-14s %8.0f %12.3f %12.3f %12.3f %8.2fx\n",
			r.Pairing, r.Workload, r.SRAMMB, r.Baseline*1e3, r.CROPHE*1e3, r.CROPHEP*1e3, r.Speedup)
	}
	return b.String()
}

// Fig11Row is one bar group of the ablation: a design's runtime plus its
// SRAM and DRAM traffic on the bootstrapping workload at small SRAM.
type Fig11Row struct {
	Variant string
	Design  string
	TimeSec float64
	SRAMGB  float64
	DRAMGB  float64
}

// Figure11 runs the optimisation-breakdown ablation on both CROPHE
// variants at reduced SRAM (the paper's small-capacity setting), plus the
// corresponding baseline reference.
func Figure11(fast bool) []Fig11Row {
	type variant struct {
		name    string
		hw      *arch.HWConfig
		base    *arch.HWConfig
		params  arch.ParamSet
		smallMB float64
	}
	variants := []variant{
		{"64-bit", arch.CROPHE64, arch.ARK, arch.ParamsARK, 128},
		{"36-bit", arch.CROPHE36, arch.SHARP, arch.ParamsSHARP, 45},
	}
	if fast {
		variants = variants[1:]
	}
	// Flatten the ladder into an indexed job list (reference + ablation
	// rungs per variant) and fan out; indices keep the rendered ladder in
	// paper order.
	type job struct {
		variant string
		wkey    string
		design  sched.Design
		factory sched.WorkloadFactory
	}
	var jobs []job
	for _, v := range variants {
		factory, _ := workload.Lookup("bootstrapping", v.params)
		wkey := v.params.Name + "/bootstrapping"
		jobs = append(jobs, job{v.name, wkey, sched.Design{
			Name: v.base.Name + "+MAD", HW: v.base.WithSRAM(v.smallMB),
			Dataflow: sched.DataflowMAD,
		}, factory})
		for _, d := range sched.AblationDesigns(v.hw.WithSRAM(v.smallMB)) {
			jobs = append(jobs, job{v.name, wkey, d, factory})
		}
	}
	rows := make([]Fig11Row, len(jobs))
	parallel.For(len(jobs), func(i int) {
		j := jobs[i]
		res := evaluateMemo(j.design, j.wkey, j.factory)
		rows[i] = Fig11Row{
			Variant: j.variant, Design: j.design.Name,
			TimeSec: res.TimeSec,
			SRAMGB:  res.Traffic.SRAM / 1e9, DRAMGB: res.Traffic.DRAM / 1e9,
		}
	})
	return rows
}

// RenderFig11 formats the ablation.
func RenderFig11(rows []Fig11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE 11 — OPTIMISATION BREAKDOWN (bootstrapping, small SRAM)\n")
	fmt.Fprintf(&b, "%-8s %-12s %10s %10s %10s\n", "Variant", "Design", "Time (ms)", "SRAM (GB)", "DRAM (GB)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-12s %10.3f %10.1f %10.1f\n",
			r.Variant, r.Design, r.TimeSec*1e3, r.SRAMGB, r.DRAMGB)
	}
	return b.String()
}

// experiment is one table or figure of the evaluation: a run returns
// its rendered text and the headline metrics crophe-bench -json records
// (nil for the static tables), from a single evaluation.
type experiment struct {
	id  string
	run func(fast bool) (string, map[string]float64, error)
}

// experiments lists every experiment in run order.
var experiments = []experiment{
	{"table1", func(bool) (string, map[string]float64, error) { return Table1(), nil, nil }},
	{"table2", func(bool) (string, map[string]float64, error) {
		chip := arch.ChipModel(arch.CROPHE36).Total()
		return Table2(), map[string]float64{
			"table2/area_mm2/total": chip.AreaMM2,
			"table2/power_w/total":  chip.PowerW,
		}, nil
	}},
	{"table3", func(bool) (string, map[string]float64, error) { return Table3(), nil, nil }},
	{"table4", func(bool) (string, map[string]float64, error) {
		rows, err := Table4()
		if err != nil {
			return "", nil, err
		}
		m := map[string]float64{}
		for _, r := range rows {
			m["table4/pe_util/"+r.Design] = r.Util.PE
			m["table4/sram_util/"+r.Design] = r.Util.SRAM
			m["table4/dram_util/"+r.Design] = r.Util.DRAM
		}
		return RenderTable4(rows), m, nil
	}},
	{"fig9", func(fast bool) (string, map[string]float64, error) {
		rows := Figure9(fast)
		m := map[string]float64{}
		for _, ps := range SpeedupSummary(rows) {
			for j, sp := range ps.Speedups {
				m["fig9/speedup/"+ps.Pairing+"/"+ps.Workloads[j]] = sp
			}
		}
		return RenderFig9(rows), m, nil
	}},
	{"fig10", func(fast bool) (string, map[string]float64, error) {
		rows := Figure10(fast)
		m := map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("fig10/speedup/%s/%s/%gMB", r.Pairing, r.Workload, r.SRAMMB)] = r.Speedup
		}
		return RenderFig10(rows), m, nil
	}},
	{"fig11", func(fast bool) (string, map[string]float64, error) {
		rows := Figure11(fast)
		m := map[string]float64{}
		ladder := map[string]map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("fig11/time_ms/%s/%s", r.Variant, r.Design)] = r.TimeSec * 1e3
			if ladder[r.Variant] == nil {
				ladder[r.Variant] = map[string]float64{}
			}
			ladder[r.Variant][r.Design] = r.TimeSec
		}
		for v, t := range ladder {
			if t["MAD"] > 0 && t["CROPHE"] > 0 {
				m["fig11/ladder_speedup/"+v] = t["MAD"] / t["CROPHE"]
			}
		}
		return RenderFig11(rows), m, nil
	}},
	{"ablations", func(bool) (string, map[string]float64, error) {
		rows := Ablations()
		m := map[string]float64{}
		for _, r := range rows {
			m[fmt.Sprintf("ablations/time_ms/%s/%s", r.Study, r.Setting)] = r.TimeSec * 1e3
		}
		return RenderAblations(rows), m, nil
	}},
	{"kernels", kernelsExperiment},
}

// Experiments lists the available experiment ids in run order.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Run executes an experiment by id and returns its rendered output.
func Run(id string, fast bool) (string, error) {
	out, _, err := runWithMetrics(id, fast)
	return out, err
}

// runWithMetrics runs one experiment and returns both its rendered text
// and its headline metrics.
func runWithMetrics(id string, fast bool) (string, map[string]float64, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.run(fast)
		}
	}
	return "", nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
}

// PairingSummary is the headline CROPHE-vs-baseline speedup of one
// Figure 9 pairing, with Workloads[i] naming the benchmark Speedups[i]
// was measured on.
type PairingSummary struct {
	Pairing   string
	Workloads []string
	Speedups  []float64
}

// SpeedupSummary extracts the headline CROPHE-vs-baseline speedups from
// Figure 9 rows. Pairings and workloads appear in row order (the paper's
// plotting order), so consumers that emit metrics or regression-diff
// entries see a stable sequence run to run.
func SpeedupSummary(rows []Fig9Row) []PairingSummary {
	var out []PairingSummary
	idx := map[string]int{}
	for _, r := range rows {
		if !strings.HasPrefix(r.Design, "CROPHE") ||
			strings.HasSuffix(r.Design, "+MAD") || strings.HasSuffix(r.Design, "-p") {
			continue
		}
		i, ok := idx[r.Pairing]
		if !ok {
			i = len(out)
			idx[r.Pairing] = i
			out = append(out, PairingSummary{Pairing: r.Pairing})
		}
		out[i].Workloads = append(out[i].Workloads, r.Workload)
		out[i].Speedups = append(out[i].Speedups, r.Speedup)
	}
	return out
}

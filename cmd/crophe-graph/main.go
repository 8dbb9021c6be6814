// Command crophe-graph inspects the operator graphs of the benchmark
// workloads: per-segment statistics (operator counts by kind, modmul
// load, data volumes) and optional Graphviz DOT export of a segment.
//
// Usage:
//
//	crophe-graph [-workload bootstrapping|boot|helr1024|helr|resnet-20|resnet20|resnet-110|resnet110]
//	             [-params ark|bts|sharp|cl] [-rot minks|hoisting|hybrid]
//	             [-nttdec] [-dot segment-name]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/workload"
)

func main() {
	wlName := flag.String("workload", "bootstrapping", "benchmark workload")
	psName := flag.String("params", "ark", "parameter set (Table III)")
	rotName := flag.String("rot", "hoisting", "rotation structure (Figure 8)")
	rHyb := flag.Int("rhyb", 4, "hybrid rotation stride")
	nttdec := flag.Bool("nttdec", false, "apply the four-step NTT rewrite")
	dotSeg := flag.String("dot", "", "write the named segment as DOT to stdout")
	flag.Parse()

	params, ok := map[string]arch.ParamSet{
		"ark": arch.ParamsARK, "bts": arch.ParamsBTS,
		"sharp": arch.ParamsSHARP, "cl": arch.ParamsCL,
	}[*psName]
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-graph: unknown parameter set %q\n", *psName)
		os.Exit(1)
	}
	mode, ok := map[string]workload.RotMode{
		"minks": workload.RotMinKS, "hoisting": workload.RotHoisted, "hybrid": workload.RotHybrid,
	}[*rotName]
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-graph: unknown rotation mode %q\n", *rotName)
		os.Exit(1)
	}

	factory, ok := workload.Lookup(*wlName, params)
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-graph: unknown workload %q\n", *wlName)
		os.Exit(1)
	}
	w := factory(mode, *rHyb)
	if *nttdec {
		w = w.DecomposeNTTs()
	}

	if *dotSeg != "" {
		for _, seg := range w.Segments {
			if seg.Name == *dotSeg {
				if err := seg.G.WriteDOT(os.Stdout, seg.Name); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "crophe-graph: no segment %q\n", *dotSeg)
		os.Exit(1)
	}

	wb := 8.0
	fmt.Printf("workload %s (%s params, %s rotations%s): %d segments, %d total ops, %.2f G modmuls\n\n",
		w.Name, params.Name, mode, dec(*nttdec), len(w.Segments), w.TotalOps(),
		float64(w.TotalModMuls())/1e9)
	fmt.Printf("%-16s %6s %7s %10s %11s %11s %9s\n",
		"segment", "count", "ops", "modmuls", "inter MB", "aux MB", "fingerprint")
	for _, seg := range w.Segments {
		s := seg.G.Summarise(wb)
		fmt.Printf("%-16s %6d %7d %10.2e %11.1f %11.1f %9s\n",
			seg.Name, seg.Count, s.ComputeOps, float64(s.ModMuls),
			s.InterBytes/1e6, s.AuxBytes/1e6, seg.G.Fingerprint()[:8])
	}

	// Aggregate kind histogram.
	kinds := map[graph.OpKind]int{}
	for _, seg := range w.Segments {
		s := seg.G.Summarise(wb)
		for k, c := range s.KindCounts {
			if k.IsCompute() {
				kinds[k] += c * seg.Count
			}
		}
	}
	var names []string
	byName := map[string]int{}
	for k, c := range kinds {
		names = append(names, k.String())
		byName[k.String()] = c
	}
	sort.Strings(names)
	fmt.Printf("\noperator mix (weighted by counts):\n")
	for _, n := range names {
		fmt.Printf("  %-12s %8d\n", n, byName[n])
	}
}

func dec(on bool) string {
	if on {
		return ", NTT-decomposed"
	}
	return ""
}

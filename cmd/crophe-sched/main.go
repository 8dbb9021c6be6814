// Command crophe-sched runs the CROPHE scheduler on a workload and prints
// the discovered dataflow scheme: per-segment groups, pipelined edges,
// shared auxiliaries, traffic and the end-to-end time estimate.
//
// Usage:
//
//	crophe-sched [-hw crophe64|crophe36|bts|ark|sharp|cl|cl+]
//	             [-workload bootstrapping|boot|helr1024|helr|resnet-20|resnet20|resnet-110|resnet110]
//	             [-dataflow crophe|mad] [-nttdec] [-hybrot] [-clusters N]
//	             [-sram MB] [-v]
package main

import (
	"flag"
	"fmt"
	"os"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

func main() {
	hwName := flag.String("hw", "crophe64", "hardware configuration")
	wlName := flag.String("workload", "bootstrapping", "benchmark workload")
	dfName := flag.String("dataflow", "crophe", "scheduling policy: crophe or mad")
	nttdec := flag.Bool("nttdec", true, "enable NTT decomposition (§V-B)")
	hybrot := flag.Bool("hybrot", true, "enable hybrid rotation (§V-C)")
	clusters := flag.Int("clusters", 1, "CROPHE-p cluster count")
	sramMB := flag.Float64("sram", 0, "override global SRAM capacity (MB)")
	verbose := flag.Bool("v", false, "print per-segment detail")
	flag.Parse()

	hw, ok := arch.Lookup(*hwName)
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-sched: unknown hardware %q\n", *hwName)
		os.Exit(1)
	}
	if *sramMB > 0 {
		hw = hw.WithSRAM(*sramMB)
	}

	factory, ok := workload.Lookup(*wlName, arch.ParamsFor(hw))
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-sched: unknown workload %q\n", *wlName)
		os.Exit(1)
	}

	df := sched.DataflowCROPHE
	if *dfName == "mad" {
		df = sched.DataflowMAD
	}
	d := sched.Design{
		Name: hw.Name, HW: hw, Dataflow: df,
		NTTDec:    *nttdec && df == sched.DataflowCROPHE,
		HybridRot: *hybrot && df == sched.DataflowCROPHE,
		Clusters:  *clusters,
	}
	res := d.Evaluate(factory)
	fmt.Println(res.String())
	fmt.Printf("utilisation: PE %.1f%%  NoC %.1f%%  SRAM %.1f%%  DRAM %.1f%%\n",
		res.Util.PE*100, res.Util.NoC*100, res.Util.SRAM*100, res.Util.DRAM*100)

	if *verbose {
		for _, seg := range res.Segments {
			pipelined := 0
			for _, g := range seg.Groups {
				pipelined += g.Pipelined
			}
			fmt.Printf("  segment %-16s ×%-4d %8.3f ms/run, %3d groups, %4d pipelined edges, DRAM %7.1f MB/run\n",
				seg.Name, seg.Count, seg.TimeSec*1e3, len(seg.Groups), pipelined, seg.Traffic.DRAM/1e6)
		}
	}
}

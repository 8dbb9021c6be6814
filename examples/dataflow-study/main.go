// Dataflow study: schedule the bootstrapping workload on the CROPHE
// accelerator under the Figure 11 ablation ladder — MAD, the basic
// cross-operator dataflow, +NTT decomposition, +hybrid rotation, and the
// full combination — then validate the winner on the cycle simulator.
// This is the paper's §VII-D experiment as a library walk-through.
package main

import (
	"fmt"
	"log"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/sim"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

func main() {
	params := arch.ParamsSHARP
	hw := arch.CROPHE36.WithSRAM(45) // the small-SRAM setting of Fig. 11
	factory, _ := workload.Lookup("bootstrapping", params)

	fmt.Printf("workload: bootstrapping (%s parameters), hardware: %s @ %.0f MB SRAM\n\n",
		params.Name, hw.Name, hw.SRAMCapacityMB)
	fmt.Printf("%-8s %10s %10s %10s %12s\n", "design", "time (ms)", "DRAM (GB)", "SRAM (GB)", "vs MAD")

	var madTime float64
	var full sched.Design
	var best *sched.Schedule
	for _, d := range sched.AblationDesigns(hw) {
		res := d.Evaluate(factory)
		if d.Name == "MAD" {
			madTime = res.TimeSec
		}
		speedup := madTime / res.TimeSec
		fmt.Printf("%-8s %10.3f %10.2f %10.1f %11.2fx\n",
			d.Name, res.TimeSec*1e3, res.Traffic.DRAM/1e9, res.Traffic.SRAM/1e9, speedup)
		full, best = d, res
	}

	// Validate the full design on the cycle-level simulator, with the
	// observability layer attached (sim.New's functional options), on
	// the graph its winning rotation candidate was scheduled on.
	w := full.Prepare(factory(best.Rot, best.RHyb))
	tel := telemetry.New()
	r, err := sim.New(hw, sim.WithTelemetry(tel)).SimulateSchedule(w, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncycle simulation of the full design: %.3f ms "+
		"(PE %.0f%%, NoC %.0f%%, SRAM %.0f%%, DRAM %.0f%%)\n",
		r.TimeSec*1e3, r.Util.PE*100, r.Util.NoC*100, r.Util.SRAM*100, r.Util.DRAM*100)
	fmt.Printf("telemetry: %d spans, %.0f on-chip transfers, %.0f HBM bursts\n",
		tel.SpanCount(), tel.Counter("sim/transfers"), tel.Counter("hbm/bursts"))

	// And show the discovered structure of one segment.
	fmt.Println("\ndiscovered dataflow of the first C2S segment:")
	seg := best.Segments[0]
	for gi, g := range seg.Groups {
		if gi >= 6 {
			fmt.Printf("  ... %d more groups\n", len(seg.Groups)-gi)
			break
		}
		fmt.Printf("  group %2d: %d ops, %d fine-pipelined edges, %.1f µs\n",
			gi, len(g.Nodes), g.Pipelined, g.TimeSec*1e6)
	}
}

// Command crophe-sim schedules a workload and executes it on the
// cycle-level accelerator simulator, printing refined timing and resource
// utilisation.
//
// Usage:
//
//	crophe-sim [-hw crophe64|crophe36|bts|ark|sharp|cl|cl+]
//	           [-workload bootstrapping|boot|helr1024|helr|resnet-20|resnet20|resnet-110|resnet110]
//	           [-dataflow crophe|mad] [-clusters N]
//	           [-trace out.json] [-mesh WxH]
//	           [-faults spec -seed N -deadline D]
//	           [-sweep N -seed N -deadline D]
//	crophe-sim -tracecheck trace.json
//
// With -trace, the run records cycle-level telemetry (one span per
// segment, group, and transfer plus per-resource counters) and writes it
// as Chrome trace-event JSON loadable in chrome://tracing or
// https://ui.perfetto.dev. With -mesh, the simulator overrides the
// configuration's PE mesh topology (a what-if knob). -tracecheck
// validates a previously written trace file (well-formed JSON, events
// present, all resource tracks named) and exits non-zero otherwise —
// `make trace-smoke` uses it.
//
// With -faults, the chip is degraded by a deterministic, seed-driven
// fault plan before scheduling (grammar:
// rows:N,lanes:F,links:N,slow:N@F,banks:N,hbm:F,stalls:N@D,stallp:F,
// flip:F,scrub:P — flip injects silent bit corruption at rate F per
// checked kernel, scrub prices a background scrub pass every P cycles)
// and the run reports throughput retained versus the healthy machine,
// plus the priced detect-recompute-escalate integrity outcome when the
// plan carries an SDC dimension. With -sweep N (N >= 2), the tool
// instead runs an N-rung escalating resilience sweep and prints the
// report. Both modes run crophe.DegradedDesign through the server's own
// path, so they print the server's numbers; they reject -mesh,
// -dataflow mad and -clusters N>1. -deadline bounds each schedule
// search through the deterministic anytime budget; the best-so-far
// schedule is used when the budget runs out. Malformed flag values and
// flag combinations no mode runs print usage and exit 2.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crophe"
	"crophe/internal/cliutil"
	"crophe/internal/sched"
)

// checkTrace validates a Chrome trace-event file written by -trace: it
// must parse, carry a non-trivial number of duration events, and name
// every resource track the simulator promises to emit.
func checkTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: not a trace-event JSON document: %v", path, err)
	}
	spans, counters := 0, 0
	faulted := false
	tracks := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
		case "C":
			counters++
			if strings.HasPrefix(ev.Name, "fault/") {
				faulted = true
			}
		case "M":
			if ev.Name == "process_name" {
				tracks[ev.Args.Name] = true
			}
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: no duration events", path)
	}
	if counters == 0 {
		return fmt.Errorf("%s: no counter events", path)
	}
	want := []string{"Schedule", "PE", "NoC", "SRAM", "HBM"}
	if faulted {
		// A degraded run (fault/* counters present) must also surface its
		// fault activity as a track.
		want = append(want, "Fault")
	}
	for _, w := range want {
		if !tracks[w] {
			return fmt.Errorf("%s: missing track %q (have %d tracks)", path, w, len(tracks))
		}
	}
	fmt.Printf("trace ok: %s (%d spans, %d counter samples, %d tracks)\n",
		path, spans, counters, len(tracks))
	return nil
}

// usageExit reports a malformed flag value, prints usage, and exits 2 —
// the conventional "bad command line" status, distinct from runtime
// failures (exit 1).
func usageExit(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "crophe-sim: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	hwName := flag.String("hw", "crophe64", "hardware configuration")
	wlName := flag.String("workload", "bootstrapping", "benchmark workload")
	dfName := flag.String("dataflow", "crophe", "scheduling policy: crophe or mad")
	clusters := flag.Int("clusters", 1, "CROPHE-p cluster count")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON to this path")
	meshSpec := flag.String("mesh", "", "override the PE mesh as WxH (e.g. 16x4)")
	traceCheck := flag.String("tracecheck", "", "validate a trace file written by -trace, then exit")
	faultSpec := flag.String("faults", "", "degrade the chip by a fault spec (e.g. rows:1,links:2,hbm:0.8,flip:0.001,scrub:100000)")
	seed := flag.Int64("seed", 1, "deterministic seed for fault placement")
	deadlineSpec := flag.String("deadline", "", "bound each schedule search (duration, e.g. 200ms)")
	sweepSteps := flag.Int("sweep", 0, "run an N-rung escalating resilience sweep (N >= 2)")
	flag.Parse()

	if *traceCheck != "" {
		if err := checkTrace(*traceCheck); err != nil {
			fmt.Fprintf(os.Stderr, "crophe-sim: %v\n", err)
			os.Exit(1)
		}
		return
	}

	deadline, err := cliutil.ParseDeadline(*deadlineSpec)
	if err != nil {
		usageExit("%v", err)
	}
	df, ok := sched.LookupDataflow(*dfName)
	if !ok {
		usageExit("unknown -dataflow %q (want crophe or mad)", *dfName)
	}
	spec, err := crophe.ParseFaultSpec(*faultSpec)
	if err != nil {
		usageExit("invalid -faults: %v", err)
	}
	if *sweepSteps < 0 || *sweepSteps == 1 {
		usageExit("invalid -sweep %d (want at least 2 rungs: a healthy one and a faulted one)", *sweepSteps)
	}
	if *sweepSteps > 0 && !spec.IsZero() {
		usageExit("-sweep and -faults are mutually exclusive (the sweep escalates its own fault specs)")
	}
	degraded := *sweepSteps > 0 || !spec.IsZero()
	if degraded && (*meshSpec != "" || df != sched.DataflowCROPHE || *clusters > 1) {
		usageExit("-mesh, -dataflow mad and -clusters N>1 cannot be combined with -faults or -sweep " +
			"(degraded runs schedule the CROPHE dataflow on one cluster and the configuration's own mesh)")
	}

	hw, ok := crophe.LookupHW(*hwName)
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-sim: unknown hardware %q\n", *hwName)
		os.Exit(1)
	}
	w, ok := crophe.LookupWorkload(*wlName, crophe.DefaultParamsFor(hw), crophe.RotHoisted)
	if !ok {
		fmt.Fprintf(os.Stderr, "crophe-sim: unknown workload %q\n", *wlName)
		os.Exit(1)
	}

	var opts []crophe.SimOption
	var tel *crophe.Telemetry
	if *tracePath != "" {
		tel = crophe.NewTelemetry()
		opts = append(opts, crophe.WithTelemetry(tel))
	}
	if *meshSpec != "" {
		mw, mh, err := cliutil.ParseMesh(*meshSpec)
		if err != nil {
			usageExit("invalid -mesh: %v", err)
		}
		opts = append(opts, crophe.WithMeshOverride(mw, mh))
	}

	if degraded {
		err = runDegraded(hw, w, deadline, spec, *seed, *sweepSteps, opts)
	} else {
		err = runHealthy(crophe.Design{Name: hw.Name, HW: hw, Dataflow: df, NTTDec: df == sched.DataflowCROPHE, Clusters: *clusters},
			w, deadline, opts)
	}
	if err == nil && *sweepSteps == 0 {
		err = writeTrace(tel, *tracePath)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "crophe-sim: %v\n", err)
		os.Exit(1)
	}
}

// runHealthy simulates the design's run of w and prints the analytical
// and simulated times.
func runHealthy(d crophe.Design, w *crophe.Workload, deadline time.Duration, opts []crophe.SimOption) error {
	r, s, err := crophe.SimulateWorkloadContext(context.Background(), d, w, deadline, opts...)
	if err != nil {
		return err
	}
	fmt.Println(r.Describe())
	fmt.Printf("analytical schedule: %.3f ms; cycle simulation: %.3f ms\n",
		s.TimeSec*1e3, r.TimeSec*1e3)
	fmt.Printf("traffic: DRAM %.1f MB, SRAM %.1f MB, NoC %.1f MB\n",
		r.Traffic.DRAM/1e6, r.Traffic.SRAM/1e6, r.Traffic.NoC/1e6)
	return nil
}

// runDegraded drives the fault-injection modes on crophe.DegradedDesign,
// the design /v1/simulate-degraded and /v1/sweeps schedule, so the tool
// and the server report the same numbers: a single degraded run under
// -faults, or an escalating resilience sweep under -sweep.
func runDegraded(hw *crophe.HWConfig, w *crophe.Workload, deadline time.Duration, spec crophe.FaultSpec,
	seed int64, sweepSteps int, opts []crophe.SimOption) error {
	ctx := context.Background()
	if sweepSteps > 0 {
		sw, err := crophe.RunResilienceSweepWith(ctx, hw, w, seed, sweepSteps, deadline)
		if err != nil {
			return err
		}
		fmt.Println(sw.String())
		return nil
	}

	m, err := crophe.NewFaultMachine(hw, spec, seed)
	if err != nil {
		return err
	}
	fmt.Println(m.Describe())
	d := crophe.DegradedDesign(hw)
	r, s, err := crophe.SimulateWorkloadContext(ctx, d, w, deadline, append(opts, crophe.WithFaults(m))...)
	if err != nil {
		return err
	}
	fmt.Println(r.Describe())
	if r.Integrity != nil {
		fmt.Printf("sdc integrity: %.0f checks, %.0f detected, %.0f recomputed, %.0f escalated, penalty %.0f cycles\n",
			r.Integrity.Checks, r.Integrity.Detected, r.Integrity.Recomputed,
			r.Integrity.Escalated, r.Integrity.PenaltyCycles())
	}
	fmt.Printf("degraded schedule: %.3f ms; cycle simulation: %.3f ms\n",
		s.TimeSec*1e3, r.TimeSec*1e3)
	if s.Partial {
		fmt.Println("schedule search cut by deadline: best-so-far schedule used")
	}

	// Baseline the healthy machine with the same design and deadline so
	// the report states throughput retained under this fault plan.
	hr, _, err := crophe.SimulateWorkloadContext(ctx, d, w, deadline)
	if err != nil {
		return fmt.Errorf("healthy baseline: %w", err)
	}
	if r.TimeSec > 0 {
		fmt.Printf("throughput retained vs healthy: %.1f%% (healthy %.3f ms)\n",
			100*hr.TimeSec/r.TimeSec, hr.TimeSec*1e3)
	}
	return nil
}

// writeTrace flushes collected telemetry to tracePath; a nil collector
// is a no-op.
func writeTrace(tel *crophe.Telemetry, tracePath string) error {
	if tel == nil {
		return nil
	}
	if err := tel.WriteChromeTraceFile(tracePath); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans, %d counters -> %s (open in chrome://tracing or ui.perfetto.dev)\n",
		tel.SpanCount(), len(tel.Counters()), tracePath)
	return nil
}

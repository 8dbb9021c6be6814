// Command crophe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	crophe-bench [-fast] [-exp table1|table2|table3|table4|fig9|fig10|fig11|ablations|kernels|all] [-json] [-o file] [-trace out.json] [-deadline D]
//	crophe-bench diff [-threshold 0.25] [-metric-tol 1e-6] OLD.json NEW.json
//
// With -json, a machine-readable report (per-experiment wall clock,
// allocation deltas, headline model metrics, measured kernel ns/op and
// ABFT integrity overhead, and search-telemetry counters — schema v4) is
// written to BENCH_<date>.json (override with
// -o) alongside the usual text output. With -trace, a Chrome trace-event
// JSON with one wall-clock span per experiment plus the accumulated
// search counters is written (loadable in chrome://tracing / Perfetto).
// The diff subcommand compares two such reports — either schema version —
// and exits non-zero when the new one regresses: cost fields (wall clock,
// allocations) beyond -threshold, deterministic model metrics drifting
// beyond -metric-tol, or a measured integrity_overhead_frac above the
// absolute 3% ceiling (gated against the NEW report regardless of
// baseline). With -deadline, the run stops launching further
// experiments once the wall-clock budget is spent (plain mode only — a
// truncated report would poison diff baselines). Malformed -deadline
// values print usage and exit 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crophe/internal/bench"
	"crophe/internal/cliutil"
	"crophe/internal/telemetry"
)

// usageExit reports a malformed flag value, prints usage, and exits 2 —
// the conventional "bad command line" status, distinct from runtime
// failures (exit 1).
func usageExit(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "crophe-bench: "+format+"\n", a...)
	flag.Usage()
	os.Exit(2)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	exp := flag.String("exp", "all", "experiment id or 'all'")
	fast := flag.Bool("fast", false, "reduced coverage for quick runs")
	jsonOut := flag.Bool("json", false, "also write a machine-readable report")
	outPath := flag.String("o", "", "report path (default BENCH_<date>.json)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON to this path")
	deadlineSpec := flag.String("deadline", "", "total wall-clock budget; stop launching experiments once exceeded")
	flag.Parse()

	deadline, err := cliutil.ParseDeadline(*deadlineSpec)
	if err != nil {
		usageExit("%v", err)
	}
	if deadline > 0 && (*jsonOut || *tracePath != "") {
		// A deadline-truncated run covers an unpredictable prefix of the
		// experiments; saving it as a report would poison bench-diff
		// baselines.
		usageExit("-deadline cannot be combined with -json or -trace")
	}

	ids := bench.Experiments()
	if *exp != "all" {
		ids = []string{*exp}
	}
	emit := func(id, out string) {
		fmt.Println(out)
		fmt.Printf("[%s completed]\n\n", id)
	}
	if !*jsonOut && *tracePath == "" {
		// Plain mode: run and print, with per-experiment timing.
		begin := time.Now()
		for i, id := range ids {
			if deadline > 0 && time.Since(begin) > deadline {
				fmt.Printf("[deadline %v reached: skipped %v]\n", deadline, ids[i:])
				break
			}
			start := time.Now()
			out, err := bench.Run(id, *fast)
			if err != nil {
				fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(out)
			fmt.Printf("[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
		}
		return
	}
	var tel *telemetry.Collector
	if *tracePath != "" {
		tel = telemetry.New()
	}
	rep, err := bench.Collect(ids, *fast, emit, tel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		if err := tel.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *tracePath)
	}
	if !*jsonOut {
		return
	}
	path := *outPath
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := rep.Save(path); err != nil {
		fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("report written to %s\n", path)
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.5, "relative increase tolerated on wall clock / allocations")
	metricTol := fs.Float64("metric-tol", 1e-6, "relative drift tolerated on deterministic model metrics")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: crophe-bench diff [-threshold f] [-metric-tol f] OLD.json NEW.json")
		return 2
	}
	oldR, err := bench.LoadReport(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
		return 2
	}
	newR, err := bench.LoadReport(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "crophe-bench: %v\n", err)
		return 2
	}
	regs := bench.Compare(oldR, newR, *threshold, *metricTol)
	fmt.Printf("%s -> %s (cost threshold %.0f%%, metric tolerance %g)\n",
		fs.Arg(0), fs.Arg(1), *threshold*100, *metricTol)
	fmt.Print(bench.RenderComparison(regs))
	if len(regs) > 0 {
		return 1
	}
	return 0
}

// Command sdcsmoke is the silent-data-corruption drill for the
// kernel/model half of the data-plane integrity story: crophe-sim runs a
// degraded simulation whose fault plan carries the SDC dimensions (flip
// rate + scrub period) and must report the priced
// detect-recompute-escalate outcome; malformed flip/scrub specs, unknown
// -dataflow names, and -dataflow mad or -clusters N>1 combined with
// -faults or -sweep must print usage and exit 2; and two identical
// deadline-bounded degraded runs must print identical reports.
//
// A plain Go program, so `make sdc-smoke` and CI run the identical
// drill.
//
// Usage:
//
//	sdcsmoke -sim path/to/crophe-sim
//
// Exits 0 when every probe passes, 1 with a diagnostic otherwise.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "sdcsmoke: FAIL: "+format+"\n", a...)
	os.Exit(1)
}

func step(format string, a ...any) { fmt.Printf("sdcsmoke: "+format+"\n", a...) }

// runSim runs crophe-sim with args and returns its exit code and
// combined output.
func runSim(sim string, args ...string) (int, string) {
	cmd := exec.Command(sim, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			fatalf("running %s %v: %v", sim, args, err)
		}
		code = ee.ExitCode()
	}
	return code, buf.String()
}

func main() {
	sim := flag.String("sim", "", "path to a built crophe-sim binary")
	flag.Parse()
	if *sim == "" {
		fmt.Fprintln(os.Stderr, "sdcsmoke: -sim is required")
		flag.Usage()
		os.Exit(2)
	}

	// The priced SDC recovery through crophe-sim.
	code, out := runSim(*sim, "-hw", "crophe64", "-workload", "boot",
		"-faults", "flip:0.0001,scrub:100000", "-seed", "29", "-deadline", "500ms")
	if code != 0 {
		fatalf("degraded SDC run exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "sdc integrity:") {
		fatalf("degraded SDC run did not report the integrity outcome:\n%s", out)
	}
	if !strings.Contains(out, "throughput retained") {
		fatalf("degraded SDC run did not report throughput retained:\n%s", out)
	}
	step("crophe-sim degraded run priced the SDC recovery (flip:0.0001,scrub:100000 seed 29)")

	// Malformed SDC specs, unknown policies, and policies no degraded run
	// schedules must print usage and exit 2, never run.
	for _, args := range [][]string{
		{"-faults", "flip:1.5"}, {"-faults", "flip:bit"}, {"-faults", "scrub:-1"}, {"-faults", "flip:0.1,flip:0.2"},
		{"-dataflow", "foo"}, {"-dataflow", "mad", "-faults", "rows:1"}, {"-clusters", "4", "-sweep", "4"},
	} {
		if code, out := runSim(*sim, args...); code != 2 {
			fatalf("%v exited %d; want 2:\n%s", args, code, out)
		}
	}
	step("malformed flip/scrub specs, -dataflow foo, and -dataflow mad / -clusters 4 in degraded modes rejected with exit 2")

	// A deadline is the deterministic search budget: two identical
	// degraded runs print identical reports.
	det := []string{"-faults", "rows:1,links:2,hbm:0.8,flip:0.0001", "-seed", "29", "-deadline", "200ms"}
	code1, out1 := runSim(*sim, det...)
	if code2, out2 := runSim(*sim, det...); code1 != 0 || code2 != 0 || out1 != out2 {
		fatalf("deadline-bounded degraded runs differ (exit %d, %d):\n%s\n---\n%s", code1, code2, out1, out2)
	}
	step("deadline-bounded degraded run is deterministic (seed 29, 200ms)")

	fmt.Println("sdcsmoke: PASS")
}

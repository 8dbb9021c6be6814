package bench

import (
	"strings"
	"testing"
)

func TestKernelsFast(t *testing.T) {
	rows, err := Kernels(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(kernelShapes(true)) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(kernelShapes(true)))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.NsOp <= 0 || r.GBps <= 0 {
			t.Errorf("%s N=%d limbs=%d: non-positive measurement %+v", r.Direction, r.N, r.Limbs, r)
		}
		seen[r.Direction] = true
	}
	if !seen["forward"] || !seen["inverse"] {
		t.Errorf("missing a direction: %v", seen)
	}

	rendered := RenderKernels(rows)
	if !strings.Contains(rendered, "BATCH NTT") || !strings.Contains(rendered, "forward") {
		t.Errorf("render missing expected content:\n%s", rendered)
	}

	m := kernelMetrics(rows)
	if len(m) != len(rows) {
		t.Fatalf("metrics: got %d keys, want %d", len(m), len(rows))
	}
	for k := range m {
		if !isCostMetric(k) {
			t.Errorf("kernel metric %q not classified as cost metric", k)
		}
	}
}

// TestKernelIntegrityFast is the live overhead measurement: the checked
// four-step transform must clear the bench gate on this machine. It
// doubles as the acceptance criterion for the fused-checksum design —
// if the fusion regresses, this fails before the diff gate ever runs.
func TestKernelIntegrityFast(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	// Each attempt's estimate is the median of interleaved pairs, but a
	// load burst spanning most of one attempt still moves it. The gate
	// must clear on at least one attempt.
	var rows []IntegrityRow
	for attempt := 0; attempt < 5; attempt++ {
		var err error
		rows, err = KernelIntegrity(true)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			if r.PlainNs <= 0 || r.CheckedNs <= 0 {
				t.Fatalf("N=%d: non-positive measurement %+v", r.N, r)
			}
			if r.OverheadFrac > worst {
				worst = r.OverheadFrac
			}
		}
		if worst <= maxIntegrityOverheadFrac {
			break
		}
		if attempt == 4 {
			t.Errorf("ABFT overhead %.2f%% exceeds the %.0f%% gate on every attempt: %+v",
				worst*100, maxIntegrityOverheadFrac*100, rows)
		}
	}
	if len(rows) != len(integrityShapes(true)) {
		t.Fatalf("got %d rows, want %d", len(rows), len(integrityShapes(true)))
	}
	rendered := RenderKernelIntegrity(rows)
	if !strings.Contains(rendered, "ABFT INTEGRITY OVERHEAD") {
		t.Errorf("render missing header:\n%s", rendered)
	}
	m := integrityMetrics(rows)
	if len(m) != 3*len(rows) {
		t.Fatalf("metrics: got %d keys, want %d", len(m), 3*len(rows))
	}
	gates := 0
	for k := range m {
		if isIntegrityGate(k) {
			gates++
			if isCostMetric(k) {
				t.Errorf("gate metric %q double-classified as ns_op cost", k)
			}
		}
	}
	if gates != len(rows) {
		t.Fatalf("got %d gate keys, want %d", gates, len(rows))
	}
}

// TestCompareIntegrityGateAbsolute pins the schema-v4 rule: an
// integrity_overhead_frac above the ceiling flags against ANY baseline —
// including one that predates the metric or that already breached — and
// values under the ceiling never flag, whatever the baseline said.
func TestCompareIntegrityGateAbsolute(t *testing.T) {
	mk := func(metrics map[string]float64) *Report {
		return &Report{
			SchemaVersion: ReportSchemaVersion,
			Experiments:   []ExperimentResult{{ID: "kernels", WallMS: 10, Metrics: metrics}},
		}
	}
	key := "kernels/integrity_overhead_frac/N=4096"
	nsKey := "kernels/ns_op/forward/N=4096/limbs=8"
	noMetric := mk(map[string]float64{nsKey: 1000})
	under := mk(map[string]float64{nsKey: 1000, key: 0.01})
	over := mk(map[string]float64{nsKey: 1000, key: 0.05})

	// Breach flags even when the baseline never had the metric.
	regs := Compare(noMetric, over, 0.5, 1e-6)
	if len(regs) != 1 || regs[0].Metric != key {
		t.Fatalf("gate breach vs old baseline: got %+v, want one %s regression", regs, key)
	}
	// A baseline that already breached does not grandfather it.
	if regs := Compare(over, over, 0.5, 1e-6); len(regs) != 1 {
		t.Errorf("breached baseline grandfathered the breach: %+v", regs)
	}
	// Under the gate: clean, even with large relative drift vs baseline.
	if regs := Compare(under, mk(map[string]float64{nsKey: 1000, key: 0.029}), 0.5, 1e-6); len(regs) != 0 {
		t.Errorf("sub-gate drift flagged: %+v", regs)
	}
	// The metric disappearing entirely is still structural.
	regs = Compare(under, noMetric, 0.5, 1e-6)
	if len(regs) != 1 || !regs[0].Structural {
		t.Errorf("vanished gate metric: got %+v, want one structural regression", regs)
	}
}

// TestCompareNsOpCostSemantics pins the schema-v3 rule: ns_op metric
// keys flag only thresholded increases, never improvements, while
// ordinary model metrics keep the tight bidirectional tolerance.
func TestCompareNsOpCostSemantics(t *testing.T) {
	mk := func(nsOp, util float64) *Report {
		return &Report{
			SchemaVersion: ReportSchemaVersion,
			Experiments: []ExperimentResult{
				{ID: "kernels", WallMS: 10, Metrics: map[string]float64{
					"kernels/ns_op/forward/N=4096/limbs=8": nsOp,
					"table4/pe_util/X":                     util,
				}},
			},
		}
	}
	base := mk(100000, 0.8)

	// A big speedup and sub-threshold noise are both clean.
	if regs := Compare(base, mk(40000, 0.8), 0.25, 1e-6); len(regs) != 0 {
		t.Errorf("ns_op improvement flagged: %+v", regs)
	}
	if regs := Compare(base, mk(110000, 0.8), 0.25, 1e-6); len(regs) != 0 {
		t.Errorf("sub-threshold ns_op increase flagged: %+v", regs)
	}

	// A thresholded slowdown is a regression.
	regs := Compare(base, mk(150000, 0.8), 0.25, 1e-6)
	if len(regs) != 1 || !isCostMetric(regs[0].Metric) {
		t.Errorf("50%% ns_op increase: got %+v, want one ns_op regression", regs)
	}

	// Deterministic metrics in the same experiment keep strict
	// bidirectional tolerance.
	regs = Compare(base, mk(100000, 0.8001), 0.25, 1e-6)
	if len(regs) != 1 || regs[0].Metric != "table4/pe_util/X" {
		t.Errorf("model-metric drift: got %+v, want one pe_util regression", regs)
	}
}

// TestRunKernelsPlainIncludesIntegrity pins the plain (non -json) path of
// the kernels experiment to the same output as the report path: both
// tables, the batch-NTT throughput and the ABFT integrity overhead.
func TestRunKernelsPlainIncludesIntegrity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	out, err := Run("kernels", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BATCH NTT", "ABFT INTEGRITY OVERHEAD"} {
		if !strings.Contains(out, want) {
			t.Errorf("plain kernels output lacks %q:\n%s", want, out)
		}
	}
}

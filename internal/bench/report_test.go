package bench

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"crophe/internal/telemetry"
)

func syntheticReport() *Report {
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		CreatedAt:     "2026-01-01T00:00:00Z",
		GoMaxProcs:    1, Workers: 1, Fast: true,
		Experiments: []ExperimentResult{
			{ID: "fig9", WallMS: 100, AllocBytes: 10 << 20, AllocObjects: 100000,
				Metrics: map[string]float64{"fig9/speedup/A/boot": 1.7}},
			{ID: "table4", WallMS: 50, AllocBytes: 5 << 20, AllocObjects: 50000,
				Metrics: map[string]float64{"table4/pe_util/CROPHE-36": 0.8}},
		},
	}
}

func TestReportSaveLoadRoundTrip(t *testing.T) {
	rep := syntheticReport()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("round trip changed report:\n%s\n%s", a, b)
	}
}

func TestLoadReportRejectsWrongSchema(t *testing.T) {
	rep := syntheticReport()
	rep.SchemaVersion = ReportSchemaVersion + 1
	path := filepath.Join(t.TempDir(), "r.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Error("mismatched schema version should fail to load")
	}
}

func TestCompareCleanAndRegressed(t *testing.T) {
	base := syntheticReport()
	if regs := Compare(base, syntheticReport(), 0.25, 1e-6); len(regs) != 0 {
		t.Errorf("identical reports flagged: %+v", regs)
	}

	// Wall-clock noise inside the threshold is tolerated.
	noisy := syntheticReport()
	noisy.Experiments[0].WallMS = 110
	if regs := Compare(base, noisy, 0.25, 1e-6); len(regs) != 0 {
		t.Errorf("10%% wall noise flagged at 25%% threshold: %+v", regs)
	}

	// Injected synthetic regressions: slow wall clock, alloc growth,
	// metric drift, and a vanished metric must all be flagged.
	bad := syntheticReport()
	bad.Experiments[0].WallMS = 200
	bad.Experiments[0].Metrics["fig9/speedup/A/boot"] = 1.2
	bad.Experiments[1].AllocBytes = 50 << 20
	delete(bad.Experiments[1].Metrics, "table4/pe_util/CROPHE-36")
	regs := Compare(base, bad, 0.25, 1e-6)
	want := map[string]bool{"wall_ms": false, "fig9/speedup/A/boot": false,
		"alloc_bytes": false, "table4/pe_util/CROPHE-36": false}
	for _, r := range regs {
		if _, ok := want[r.Metric]; ok {
			want[r.Metric] = true
		}
	}
	for m, seen := range want {
		if !seen {
			t.Errorf("regression on %s not flagged (got %+v)", m, regs)
		}
	}
	// A dropped experiment is structural.
	short := syntheticReport()
	short.Experiments = short.Experiments[:1]
	regs = Compare(base, short, 0.25, 1e-6)
	found := false
	for _, r := range regs {
		if r.Experiment == "table4" && r.Structural {
			found = true
		}
	}
	if !found {
		t.Errorf("missing experiment not flagged: %+v", regs)
	}
}

func TestCollectProducesStableMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	ids := []string{"table2", "fig9"}
	var rendered int
	rep, err := Collect(ids, true, func(_, out string) {
		if out != "" {
			rendered++
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rendered != len(ids) || len(rep.Experiments) != len(ids) {
		t.Fatalf("collected %d experiments, rendered %d, want %d", len(rep.Experiments), rendered, len(ids))
	}
	for _, e := range rep.Experiments {
		if e.WallMS < 0 {
			t.Errorf("%s: negative wall clock", e.ID)
		}
		if len(e.Metrics) == 0 {
			t.Errorf("%s: no metrics", e.ID)
		}
	}
	// The model is deterministic: a second collection yields identical
	// metrics (wall clock and allocations may differ).
	rep2, err := Collect(ids, true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Compare(selectMetricsOnly(rep), selectMetricsOnly(rep2), 1e9, 1e-9); len(regs) != 0 {
		t.Errorf("metrics drifted between identical runs: %+v", regs)
	}
}

// selectMetricsOnly strips cost fields so Compare only sees the model
// metrics.
func selectMetricsOnly(r *Report) *Report {
	out := *r
	out.Experiments = nil
	for _, e := range r.Experiments {
		e.WallMS, e.AllocBytes, e.AllocObjects = 0, 0, 0
		out.Experiments = append(out.Experiments, e)
	}
	return &out
}

func TestLoadReportAcceptsOlderSchema(t *testing.T) {
	// A v1 baseline (pre-counters) must stay diffable against v2 runs.
	rep := syntheticReport()
	rep.SchemaVersion = minReadableSchemaVersion
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatalf("v%d report rejected: %v", minReadableSchemaVersion, err)
	}
	if regs := Compare(got, syntheticReport(), 0.25, 1e-6); len(regs) != 0 {
		t.Errorf("cross-version diff flagged equal content: %+v", regs)
	}
}

func TestCollectRecordsCountersAndTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep in -short mode")
	}
	tel := telemetry.New()
	rep, err := Collect([]string{"table4"}, true, nil, tel)
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Experiments[0]
	if e.Counters == nil {
		t.Fatal("schema v2 experiment has no counters")
	}
	for _, key := range []string{"sched/candidates", "sched/seg_cache_misses", "bench/memo_hits"} {
		if _, ok := e.Counters[key]; !ok {
			t.Errorf("counter %s missing: %v", key, e.Counters)
		}
	}
	// Table IV's PE, SRAM and DRAM columns are recorded for every design.
	for _, design := range []string{"ARK+MAD", "CROPHE-64", "CROPHE-p-64", "SHARP+MAD", "CROPHE-36", "CROPHE-p-36"} {
		for _, col := range []string{"pe_util", "sram_util", "dram_util"} {
			key := "table4/" + col + "/" + design
			if v, ok := e.Metrics[key]; !ok || v <= 0 || v > 1 {
				t.Errorf("metric %s = %v (present %v); want a utilisation in (0, 1]", key, v, ok)
			}
		}
	}
	// As in the paper, CROPHE-p's DRAM utilisation is above CROPHE's on
	// both machines.
	for _, hw := range []string{"64", "36"} {
		if p, c := e.Metrics["table4/dram_util/CROPHE-p-"+hw], e.Metrics["table4/dram_util/CROPHE-"+hw]; p <= c {
			t.Errorf("CROPHE-p-%s DRAM utilisation %.4f not above CROPHE-%s's %.4f", hw, p, hw, c)
		}
	}
	// The collector mirrors the counters and spans each experiment.
	if tel.SpanCount() != 1 {
		t.Fatalf("span count %d want 1 (one per experiment)", tel.SpanCount())
	}
	if tel.TimeUnit() != "ms" {
		t.Fatalf("bench trace time unit %q want ms", tel.TimeUnit())
	}
	if _, err := tel.ChromeTrace(); err != nil {
		t.Fatal(err)
	}
}

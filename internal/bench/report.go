package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"crophe/internal/parallel"
	"crophe/internal/sched"
	"crophe/internal/telemetry"
)

// ReportSchemaVersion identifies the BENCH_*.json layout. Bump it on any
// layout change; readers accept any version back to
// minReadableSchemaVersion so diffs against older baselines keep working.
//
// History:
//
//	v1 — id/wall_ms/alloc_bytes/alloc_objects/metrics
//	v2 — adds per-experiment "counters" (search/memo telemetry deltas)
//	v3 — adds the "kernels" experiment; metric keys containing "/ns_op"
//	     are machine measurements and carry cost semantics in Compare
//	     (increase-only, gated by the cost threshold) instead of the
//	     deterministic-metric tolerance
//	v4 — the "kernels" experiment additionally measures the ABFT-checked
//	     four-step transform; metric keys containing
//	     "/integrity_overhead_frac" carry an absolute gate in Compare
//	     (flagged whenever the NEW value exceeds maxIntegrityOverheadFrac,
//	     baseline or not) instead of either tolerance
const ReportSchemaVersion = 4

// minReadableSchemaVersion is the oldest layout LoadReport still parses:
// every field added since v1 is optional, so a v1 report reads cleanly.
const minReadableSchemaVersion = 1

// ExperimentResult is the machine-readable record of one experiment run:
// its cost (wall clock and allocation deltas over the run) and the
// headline metrics of the model itself, keyed by stable slash-separated
// names (encoding/json sorts map keys, so serialized output is
// byte-stable for equal content).
type ExperimentResult struct {
	ID           string             `json:"id"`
	WallMS       float64            `json:"wall_ms"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	AllocObjects uint64             `json:"alloc_objects"`
	Metrics      map[string]float64 `json:"metrics,omitempty"`
	// Counters (schema v2) are telemetry deltas over the experiment:
	// dataflow-search activity (sched/*) and schedule-memo traffic
	// (bench/*). They describe work done, not model output, and depend on
	// experiment order (a warm memo skips search), so Compare ignores
	// them.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Report is the top-level BENCH_*.json document.
type Report struct {
	SchemaVersion int                `json:"schema_version"`
	CreatedAt     string             `json:"created_at"`
	GoMaxProcs    int                `json:"gomaxprocs"`
	Workers       int                `json:"workers"`
	Fast          bool               `json:"fast"`
	Experiments   []ExperimentResult `json:"experiments"`
}

// Collect runs the given experiments in order and assembles a Report.
// emit, when non-nil, receives each experiment's rendered text as it
// completes (so -json keeps the human-readable output). Allocation deltas
// come from the runtime's monotonic TotalAlloc/Mallocs counters, so they
// are unaffected by GC timing; wall clock is the only noisy field.
//
// tel, when non-nil (crophe-bench's -trace flag), receives a trace: each
// experiment becomes a wall-clock span on the "Bench" track and the
// per-experiment counter deltas accumulate into it. A nil tel records
// no trace.
func Collect(ids []string, fast bool, emit func(id, rendered string), tel *telemetry.Collector) (*Report, error) {
	tel.SetTimeUnit("ms")
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:    runtime.GOMAXPROCS(0),
		Workers:       parallel.Workers(),
		Fast:          fast,
	}
	var ms runtime.MemStats
	var elapsedMS float64
	for _, id := range ids {
		runtime.ReadMemStats(&ms)
		bytes0, objs0 := ms.TotalAlloc, ms.Mallocs
		search0 := sched.Stats()
		memo0 := ScheduleMemoStats()
		start := time.Now()
		out, metrics, err := runWithMetrics(id, fast)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		search1 := sched.Stats()
		memo1 := ScheduleMemoStats()
		if emit != nil {
			emit(id, out)
		}
		counters := map[string]float64{
			"sched/candidates":       float64(search1.Candidates - search0.Candidates),
			"sched/pruned":           float64(search1.Pruned - search0.Pruned),
			"sched/seg_cache_hits":   float64(search1.CacheHits - search0.CacheHits),
			"sched/seg_cache_misses": float64(search1.CacheMisses - search0.CacheMisses),
			"bench/memo_hits":        float64(memo1.Hits - memo0.Hits),
			"bench/memo_misses":      float64(memo1.Misses - memo0.Misses),
		}
		wallMS := float64(wall.Nanoseconds()) / 1e6
		if tel.Enabled() {
			tel.EmitSpan("Bench", "experiments", id, elapsedMS, wallMS,
				telemetry.Arg{Key: "alloc_mb", Value: float64(ms.TotalAlloc-bytes0) / 1e6})
			for name, v := range counters {
				// EmitCounter accumulates, so map order does not matter.
				tel.EmitCounter(name, v)
			}
		}
		elapsedMS += wallMS
		rep.Experiments = append(rep.Experiments, ExperimentResult{
			ID:           id,
			WallMS:       wallMS,
			AllocBytes:   ms.TotalAlloc - bytes0,
			AllocObjects: ms.Mallocs - objs0,
			Metrics:      metrics,
			Counters:     counters,
		})
	}
	return rep, nil
}

// Save writes the report as indented JSON.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a BENCH_*.json file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.SchemaVersion < minReadableSchemaVersion || r.SchemaVersion > ReportSchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema version %d, want %d..%d",
			path, r.SchemaVersion, minReadableSchemaVersion, ReportSchemaVersion)
	}
	return &r, nil
}

// Regression is one flagged difference between two reports.
type Regression struct {
	Experiment string
	Metric     string // "wall_ms", "alloc_bytes", "alloc_objects", or a metrics key
	Old, New   float64
	Delta      float64 // relative change, (new-old)/old
	Structural bool    // an experiment or metric disappeared
}

// Cost fields below these absolute deltas are never flagged, whatever
// the relative change: micro-experiments (a table render taking tens of
// microseconds) see large relative wall-clock noise on loaded machines,
// and sync.Pool contents surviving or not surviving a GC shifts
// allocation counts slightly.
const (
	minWallDeltaMS    = 10
	minAllocDeltaB    = 1 << 20 // 1 MiB
	minAllocDeltaObjs = 10000
)

// maxIntegrityOverheadFrac is the absolute ceiling on the measured ABFT
// overhead of the checked transforms (schema v4): the fused-checksum
// design budgets the verification at 3% of the unchecked kernel, and
// Compare flags any new report whose measured fraction exceeds it —
// whether or not the baseline had the metric at all.
const maxIntegrityOverheadFrac = 0.03

// isCostMetric reports whether a metric key records a machine
// measurement (per-op wall clock) rather than deterministic model
// output. The "/ns_op" path component is the marker, introduced with the
// kernels experiment in schema v3.
func isCostMetric(k string) bool {
	return strings.Contains(k, "/ns_op")
}

// isIntegrityGate reports whether a metric key is an ABFT overhead
// fraction, gated absolutely (schema v4) rather than relative to the
// baseline.
func isIntegrityGate(k string) bool {
	return strings.Contains(k, "/integrity_overhead_frac")
}

// Compare diffs two reports. Cost fields (wall clock, allocations) are
// noisy, so only increases beyond costThreshold that also clear an
// absolute-significance floor are flagged. Model metrics are
// deterministic — schedules are exhaustive sweeps with no randomness —
// so any relative drift beyond metricTol is flagged, in either
// direction; the exception is ns_op metric keys (see isCostMetric),
// which are measurements and get the cost treatment instead.
// Experiments or metrics present in old but missing in new
// are structural regressions. New entries are not flagged.
func Compare(oldR, newR *Report, costThreshold, metricTol float64) []Regression {
	var regs []Regression
	newExp := map[string]ExperimentResult{}
	for _, e := range newR.Experiments {
		newExp[e.ID] = e
	}
	for _, oe := range oldR.Experiments {
		ne, ok := newExp[oe.ID]
		if !ok {
			regs = append(regs, Regression{Experiment: oe.ID, Metric: "experiment", Structural: true})
			continue
		}
		for _, c := range []struct {
			name     string
			old, new float64
			floor    float64
		}{
			{"wall_ms", oe.WallMS, ne.WallMS, minWallDeltaMS},
			{"alloc_bytes", float64(oe.AllocBytes), float64(ne.AllocBytes), minAllocDeltaB},
			{"alloc_objects", float64(oe.AllocObjects), float64(ne.AllocObjects), minAllocDeltaObjs},
		} {
			if c.old > 0 && c.new > c.old*(1+costThreshold) && c.new-c.old > c.floor {
				regs = append(regs, Regression{
					Experiment: oe.ID, Metric: c.name,
					Old: c.old, New: c.new, Delta: (c.new - c.old) / c.old,
				})
			}
		}
		keys := make([]string, 0, len(oe.Metrics))
		for k := range oe.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ov := oe.Metrics[k]
			nv, ok := ne.Metrics[k]
			if !ok {
				regs = append(regs, Regression{Experiment: oe.ID, Metric: k, Old: ov, Structural: true})
				continue
			}
			if isIntegrityGate(k) {
				continue // handled by the absolute scan over the new report below
			}
			if isCostMetric(k) {
				// Machine measurement (schema v3): noisy like wall_ms,
				// so only a thresholded increase counts; speedups never
				// flag.
				if ov > 0 && nv > ov*(1+costThreshold) {
					regs = append(regs, Regression{
						Experiment: oe.ID, Metric: k, Old: ov, New: nv, Delta: (nv - ov) / ov,
					})
				}
				continue
			}
			denom := math.Max(math.Abs(ov), 1e-12)
			delta := (nv - ov) / denom
			if math.Abs(delta) > metricTol {
				regs = append(regs, Regression{
					Experiment: oe.ID, Metric: k, Old: ov, New: nv, Delta: delta,
				})
			}
		}
	}
	// The integrity gate is absolute: scan the NEW report, so a breach is
	// flagged even against a baseline predating the metric, and an old
	// report that already breached does not grandfather the regression.
	for _, ne := range newR.Experiments {
		keys := make([]string, 0, len(ne.Metrics))
		for k := range ne.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if !isIntegrityGate(k) {
				continue
			}
			if nv := ne.Metrics[k]; nv > maxIntegrityOverheadFrac {
				regs = append(regs, Regression{
					Experiment: ne.ID, Metric: k,
					Old: maxIntegrityOverheadFrac, New: nv,
					Delta: (nv - maxIntegrityOverheadFrac) / maxIntegrityOverheadFrac,
				})
			}
		}
	}
	return regs
}

// RenderComparison formats a Compare result for the terminal.
func RenderComparison(regs []Regression) string {
	if len(regs) == 0 {
		return "no regressions\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d regression(s):\n", len(regs))
	for _, r := range regs {
		if r.Structural {
			fmt.Fprintf(&b, "  %-10s %-50s MISSING (was %g)\n", r.Experiment, r.Metric, r.Old)
			continue
		}
		fmt.Fprintf(&b, "  %-10s %-50s %12.4g -> %-12.4g (%+.1f%%)\n",
			r.Experiment, r.Metric, r.Old, r.New, r.Delta*100)
	}
	return b.String()
}

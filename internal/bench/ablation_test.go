package bench

import (
	"strings"
	"testing"
)

func TestAblateGroupSize(t *testing.T) {
	rows := AblateGroupSize(ablationFactory())
	if len(rows) != 5 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Spatial pipelining must pay: the largest group bound beats size 1.
	first, last := rows[0], rows[len(rows)-1]
	if last.TimeSec >= first.TimeSec {
		t.Errorf("group size %s (%.3g) not faster than %s (%.3g)",
			last.Setting, last.TimeSec, first.Setting, first.TimeSec)
	}
}

func TestAblateRHybEndpoints(t *testing.T) {
	rows := AblateRHyb(ablationFactory())
	times := map[string]float64{}
	for _, r := range rows {
		times[r.Setting] = r.TimeSec
	}
	// At the 90 MB setting Min-KS can keep its single evk resident —
	// the paper's "Min-KS works better in large-SRAM scenarios".
	if times["min-ks (endpoint)"] > times["hoisting (endpoint)"] {
		t.Errorf("min-ks (%.3g) should beat hoisting (%.3g) at 90 MB",
			times["min-ks (endpoint)"], times["hoisting (endpoint)"])
	}
	// Hybrid strides interpolate between the endpoints.
	for _, setting := range []string{"hybrid r=2", "hybrid r=4", "hybrid r=8"} {
		v := times[setting]
		lo, hi := times["min-ks (endpoint)"], times["hoisting (endpoint)"]
		if lo > hi {
			lo, hi = hi, lo
		}
		if v < lo*0.9 || v > hi*1.1 {
			t.Errorf("%s (%.3g) outside endpoint envelope [%.3g, %.3g]", setting, v, lo, hi)
		}
	}
}

func TestAblatePEAllocation(t *testing.T) {
	rows := AblatePEAllocation(ablationFactory())
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	prop, uniform := rows[0], rows[1]
	if prop.TimeSec >= uniform.TimeSec {
		t.Errorf("proportional allocation (%.3g) should beat uniform (%.3g)",
			prop.TimeSec, uniform.TimeSec)
	}
}

func TestAblateNTTSplit(t *testing.T) {
	rows := AblateNTTSplit(ablationFactory())
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for _, r := range rows {
		if r.TimeSec <= 0 {
			t.Errorf("%s: non-positive time", r.Setting)
		}
	}
}

func TestRenderAblations(t *testing.T) {
	out := RenderAblations(Ablations())
	for _, study := range []string{"group-size", "ntt-split", "r-hyb", "pe-alloc"} {
		if !strings.Contains(out, study) {
			t.Errorf("missing study %s", study)
		}
	}
}

func TestRunAblations(t *testing.T) {
	out, err := Run("ablations", true)
	if err != nil || !strings.Contains(out, "ABLATIONS") {
		t.Fatalf("Run(ablations): %v", err)
	}
}

package crophe

import (
	"context"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFacadeParseFaultSpec(t *testing.T) {
	for _, s := range []string{"", "healthy"} {
		spec, err := ParseFaultSpec(s)
		if err != nil || !spec.IsZero() {
			t.Fatalf("ParseFaultSpec(%q) = %+v, %v; want healthy", s, spec, err)
		}
	}
	spec, err := ParseFaultSpec("rows:2,hbm:0.5")
	if err != nil || spec.FailedRows != 2 || spec.HBMFrac != 0.5 {
		t.Fatalf("ParseFaultSpec = %+v, %v", spec, err)
	}
	if _, err := ParseFaultSpec("rows:-1"); err == nil {
		t.Fatal("negative row count accepted")
	}
}

func TestFacadeSimulateDegraded(t *testing.T) {
	spec, err := ParseFaultSpec("rows:1,links:2,banks:4")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFaultMachine(HWCROPHE64, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	w := BootstrappingWorkload(ParamsARK)(RotHoisted, 0)
	res, s, err := SimulateDegraded(context.Background(), m, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || s == nil || len(s.Segments) == 0 {
		t.Fatalf("degraded run produced no result: %+v", res)
	}
}

func TestFacadeDeadMachineIsTypedError(t *testing.T) {
	_, err := NewFaultMachine(HWCROPHE64, FaultSpec{FailedRows: 8}, 3)
	if !errors.Is(err, ErrMachineDead) {
		t.Fatalf("err = %v; want ErrMachineDead", err)
	}
	if !strings.Contains(err.Error(), "seed 3") {
		t.Fatalf("error does not carry the seed: %v", err)
	}
}

func TestFacadePanicRecoveryCarriesSeed(t *testing.T) {
	m, err := NewFaultMachine(HWCROPHE64, FaultSpec{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	// A nil workload is an invariant violation deep in the scheduler;
	// the facade boundary must surface it as an error carrying the
	// fault seed, not a panic.
	_, _, err = SimulateDegraded(context.Background(), m, nil)
	if err == nil {
		t.Fatal("nil workload did not error")
	}
	if !strings.Contains(err.Error(), "seed 99") {
		t.Fatalf("recovered error does not carry the seed: %v", err)
	}
}

func TestFacadeResilienceSweep(t *testing.T) {
	w := BootstrappingWorkload(ParamsARK)(RotHoisted, 0)
	sw, err := RunResilienceSweep(context.Background(), HWCROPHE64, w, 21, 3, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 3 || sw.Baseline <= 0 {
		t.Fatalf("sweep malformed: %+v", sw)
	}
	prev := math.Inf(1)
	for i := range sw.Points {
		pt := &sw.Points[i]
		if pt.Err != "" {
			t.Fatalf("rung %d infeasible: %s", i, pt.Err)
		}
		if r := pt.Retained(sw.Baseline); r > prev+1e-9 {
			t.Fatalf("retained throughput rose at rung %d", i)
		} else {
			prev = r
		}
	}
	if !strings.Contains(sw.String(), "resilience sweep") {
		t.Fatalf("report missing header:\n%s", sw.String())
	}
}

// TestFacadeFaultedRunIsOnePath checks the one schedule→simulate path
// under WithFaults: SimulateDegraded is exactly that path with
// DegradedDesign, a deadline-bounded faulted run is bit-identical across
// runs (the deadline is the deterministic search budget), and a design
// for other hardware than the fault machine's is an error naming the
// seed.
func TestFacadeFaultedRunIsOnePath(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseFaultSpec("rows:1,links:2,hbm:0.8,stalls:2@150")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFaultMachine(HWCROPHE64, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	w := BootstrappingWorkload(ParamsARK)(RotHoisted, 0)
	digest := func(deadline time.Duration, degraded bool) uint64 {
		t.Helper()
		h := fnv.New64a()
		var res *SimResult
		var s *Schedule
		if degraded {
			res, s, err = SimulateDegraded(ctx, m, w, WithTelemetry(NewTelemetry()))
		} else {
			res, s, err = SimulateWorkloadContext(ctx, DegradedDesign(HWCROPHE64), w, deadline,
				WithFaults(m), WithTelemetry(NewTelemetry()))
		}
		if err != nil {
			t.Fatal(err)
		}
		if deadline > 0 && !s.Partial {
			t.Fatalf("a %v deadline did not cut the faulted search", deadline)
		}
		hashFacadeSchedule(h, s)
		hashSimResult(h, res)
		return h.Sum64()
	}
	if got, want := digest(0, false), digest(0, true); got != want {
		t.Errorf("WithFaults path %#x differs from SimulateDegraded %#x", got, want)
	}
	if a, b := digest(time.Millisecond, false), digest(time.Millisecond, false); a != b {
		t.Errorf("deadline-bounded faulted run not deterministic: %#x vs %#x", a, b)
	}

	other, err := NewFaultMachine(HWCROPHE36, spec, 31)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = SimulateWorkloadContext(ctx, DegradedDesign(HWCROPHE64), w, 0, WithFaults(other))
	if err == nil || !strings.Contains(err.Error(), "seed 31") {
		t.Fatalf("design for other hardware than the fault machine's: err = %v; want one naming seed 31", err)
	}
}

package bench

import (
	"sync"
	"sync/atomic"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// helrFactory is a small real workload for cache tests.
func helrFactory(p arch.ParamSet) sched.WorkloadFactory {
	return func(m workload.RotMode, r int) *workload.Workload {
		return workload.HELR(p, m, r)
	}
}

func madDesign(hw *arch.HWConfig) sched.Design {
	return sched.Design{Name: hw.Name + "+MAD", HW: hw, Dataflow: sched.DataflowMAD}
}

// TestMemoSingleFlight launches many concurrent misses on one key and
// checks that exactly one evaluation ran: every caller must get the same
// *Schedule pointer and the miss counter must read 1.
func TestMemoSingleFlight(t *testing.T) {
	ResetScheduleMemo()
	d := madDesign(arch.CROPHE36)
	factory := helrFactory(arch.ParamsSHARP)

	const callers = 16
	var (
		wg    sync.WaitGroup
		got   [callers]*sched.Schedule
		evals atomic.Int64
	)
	counting := func(m workload.RotMode, r int) *workload.Workload {
		evals.Add(1)
		return factory(m, r)
	}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = evaluateMemo(d, "singleflight/helr", counting)
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different schedule pointer: single-flight failed", i)
		}
	}
	st := ScheduleMemoStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single-flight should coalesce concurrent misses)", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("hits = %d, want %d", st.Hits, callers-1)
	}
	// The factory is called multiple times per evaluation (rotation-mode
	// sweep), but only by the single evaluating flight: a second identical
	// single-flight run must not add factory calls.
	before := evals.Load()
	evaluateMemo(d, "singleflight/helr", counting)
	if evals.Load() != before {
		t.Error("cache hit re-ran the evaluation")
	}
}

// TestMemoEviction fills the cache past a capacity of 2 and checks that
// the least-recently-used entry is evicted and counted.
func TestMemoEviction(t *testing.T) {
	ResetScheduleMemo()
	prev := SetScheduleMemoCapacity(2)
	defer SetScheduleMemoCapacity(prev)

	d := madDesign(arch.CROPHE36)
	factory := helrFactory(arch.ParamsSHARP)

	evaluateMemo(d, "evict/a", factory)
	evaluateMemo(d, "evict/b", factory)
	// Touch a so b becomes the LRU entry.
	evaluateMemo(d, "evict/a", factory)
	evaluateMemo(d, "evict/c", factory) // evicts b

	st := ScheduleMemoStats()
	if st.Size != 2 {
		t.Errorf("size = %d, want 2 (capacity bound)", st.Size)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}

	// a must still be cached (it was touched); b must have been evicted.
	hits0 := ScheduleMemoStats().Hits
	evaluateMemo(d, "evict/a", factory)
	if ScheduleMemoStats().Hits != hits0+1 {
		t.Error("LRU evicted the recently-used entry instead of the stale one")
	}
	misses0 := ScheduleMemoStats().Misses
	evaluateMemo(d, "evict/b", factory)
	if ScheduleMemoStats().Misses != misses0+1 {
		t.Error("evicted entry was still served from cache")
	}
}

// TestMemoCapacityClamp checks the capacity setter clamps and evicts
// immediately when shrunk below the current size.
func TestMemoCapacityClamp(t *testing.T) {
	ResetScheduleMemo()
	prev := SetScheduleMemoCapacity(8)
	defer SetScheduleMemoCapacity(prev)

	d := madDesign(arch.CROPHE36)
	factory := helrFactory(arch.ParamsSHARP)
	for _, k := range []string{"clamp/a", "clamp/b", "clamp/c"} {
		evaluateMemo(d, k, factory)
	}
	SetScheduleMemoCapacity(0) // clamps to 1
	st := ScheduleMemoStats()
	if st.Capacity != 1 {
		t.Errorf("capacity = %d, want 1 after clamp", st.Capacity)
	}
	if st.Size > 1 {
		t.Errorf("size = %d, want <= 1 after shrink", st.Size)
	}
	if st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2 after shrinking 3 entries to 1", st.Evictions)
	}
}

// TestMemoKeyIgnoresDesignName checks that two designs differing only in
// their display name share one entry: the name decides no schedule
// field, so Table IV's "CROPHE-p-64" reuses Figure 9's "CROPHE-64-p".
func TestMemoKeyIgnoresDesignName(t *testing.T) {
	ResetScheduleMemo()
	factory := helrFactory(arch.ParamsSHARP)
	a := madDesign(arch.CROPHE36)
	b := a
	b.Name = "another name"
	first := evaluateMemo(a, "name/helr", factory)
	if got := evaluateMemo(b, "name/helr", factory); got != first {
		t.Fatal("a design differing only in Name got a schedule of its own")
	}
	if st := ScheduleMemoStats(); st.Misses != 1 || st.Hits != 1 || st.Size != 1 {
		t.Fatalf("memo stats %+v; want one miss, one hit, one entry", st)
	}
}

package bench

import (
	"fmt"
	"sync"

	"crophe/internal/arch"
	"crophe/internal/sched"
)

// memoKey identifies one (design, hardware, workload) evaluation. The
// design part spells out every field that changes scheduling behaviour
// (name alone is not enough: Figure 11 reuses short names like "MAD"
// across hardware variants); the hardware part is arch.ConfigHash, so
// Figure 10 sweep points at distinct SRAM capacities get distinct
// entries; the workload part couples the benchmark name with the
// parameter set it is instantiated under.
type memoKey struct {
	design   string
	hw       uint64
	workload string
}

// memoEntry is one cache slot. ready is closed once the evaluation
// finishes; until then concurrent misses on the same key block on it
// (single-flight) instead of duplicating the multi-hundred-millisecond
// schedule search. lastUse is a coarse logical clock driving LRU
// eviction; it is only read and written under memoMu.
type memoEntry struct {
	ready   chan struct{}
	s       *sched.Schedule // nil until ready is closed; nil after close means the evaluation panicked
	lastUse uint64
}

// DefaultScheduleMemoCapacity bounds the schedule cache. The full paper
// reproduction needs well under a hundred distinct (design, hw, workload)
// points, so the default is generous for batch runs while keeping a
// long-running server's footprint flat.
const DefaultScheduleMemoCapacity = 256

var (
	memoMu    sync.Mutex
	memoMap   = make(map[memoKey]*memoEntry)
	memoClock uint64
	memoCap   = DefaultScheduleMemoCapacity

	memoHits      uint64
	memoMisses    uint64
	memoEvictions uint64
)

func designKey(d sched.Design) string {
	return fmt.Sprintf("%s|%s|ntt=%t|hyb=%t|cl=%d",
		d.Name, d.Dataflow, d.NTTDec, d.HybridRot, d.Clusters)
}

// Memoized returns the schedule cached under the design and workload
// key, running eval on a miss, and reports whether the cache answered
// (true) or eval ran (false). eval must be deterministic — a design
// evaluation or a single full-fidelity schedule, never a
// deadline-bounded partial one — so a cached schedule is bit-identical
// to a fresh one. workloadKey must uniquely identify the workload eval
// schedules (benchmark name + parameter set). Cached schedules are
// shared across experiments, goroutines and serving requests: callers
// must treat them as read-only, which every consumer does (they read
// TimeSec, Traffic and Util, and the cycle simulator only reads the
// schedule it validates).
//
// Concurrent misses on the same key single-flight: the first caller
// evaluates, later callers block on the entry's ready channel and share
// the result, so identical concurrent serving requests coalesce into one
// search. If the evaluating caller panics, waiters observe a nil
// schedule and evaluate for themselves (the panic propagates on the
// original goroutine only).
func Memoized(d sched.Design, workloadKey string, eval func() *sched.Schedule) (*sched.Schedule, bool) {
	key := memoKey{design: designKey(d), hw: arch.ConfigHash(d.HW), workload: workloadKey}
	for {
		memoMu.Lock()
		if e, ok := memoMap[key]; ok {
			memoClock++
			e.lastUse = memoClock
			memoMu.Unlock()
			<-e.ready
			if e.s != nil {
				memoMu.Lock()
				memoHits++
				memoMu.Unlock()
				return e.s, true
			}
			// The flight that owned this entry panicked and removed it;
			// retry, becoming the owner ourselves if nobody beat us to it.
			continue
		}
		e := &memoEntry{ready: make(chan struct{})}
		memoClock++
		e.lastUse = memoClock
		memoMap[key] = e
		memoMisses++
		memoMu.Unlock()

		ok := false
		defer func() {
			// On panic: drop the placeholder so the key stays evaluable and
			// wake waiters (they see a nil schedule and re-evaluate).
			if !ok {
				memoMu.Lock()
				delete(memoMap, key)
				memoMu.Unlock()
				close(e.ready)
			}
		}()
		s := eval()
		ok = true

		memoMu.Lock()
		e.s = s
		evictOverCapLocked(key)
		memoMu.Unlock()
		close(e.ready)
		return s, false
	}
}

// evictOverCapLocked evicts least-recently-used ready entries until the
// cache fits its capacity, never evicting keep (the entry just inserted)
// or entries still in flight. Called with memoMu held. The scan is linear
// — coarse, but the cache is small and eviction only fires on inserts
// past capacity, never on the hit path.
func evictOverCapLocked(keep memoKey) {
	for len(memoMap) > memoCap {
		var victim memoKey
		var victimUse uint64
		found := false
		for k, e := range memoMap {
			if k == keep || e.s == nil {
				continue
			}
			if !found || e.lastUse < victimUse {
				victim, victimUse, found = k, e.lastUse, true
			}
		}
		if !found {
			return
		}
		delete(memoMap, victim)
		memoEvictions++
	}
}

// evaluateMemo memoises the design's evaluation over factory.
func evaluateMemo(d sched.Design, workloadKey string, factory sched.WorkloadFactory) *sched.Schedule {
	s, _ := Memoized(d, workloadKey, func() *sched.Schedule { return d.Evaluate(factory) })
	return s
}

// MemoStats is a snapshot of the schedule cache: cumulative hit, miss and
// eviction counts plus the current size and configured capacity.
type MemoStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Size      int
	Capacity  int
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (m MemoStats) HitRate() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Hits) / float64(total)
}

// ScheduleMemoStats returns a snapshot of the schedule-cache counters.
func ScheduleMemoStats() MemoStats {
	memoMu.Lock()
	defer memoMu.Unlock()
	return MemoStats{
		Hits:      memoHits,
		Misses:    memoMisses,
		Evictions: memoEvictions,
		Size:      len(memoMap),
		Capacity:  memoCap,
	}
}

// SetScheduleMemoCapacity bounds the cache to n entries (n < 1 clamps to
// 1) and evicts immediately if the cache is already over the new bound.
// Returns the previous capacity.
func SetScheduleMemoCapacity(n int) int {
	if n < 1 {
		n = 1
	}
	memoMu.Lock()
	defer memoMu.Unlock()
	prev := memoCap
	memoCap = n
	evictOverCapLocked(memoKey{})
	return prev
}

// ResetScheduleMemo clears the schedule cache and its counters. Intended
// for tests and for benchmarks that want to measure cold-start cost.
func ResetScheduleMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	memoMap = make(map[memoKey]*memoEntry)
	memoHits, memoMisses, memoEvictions = 0, 0, 0
}

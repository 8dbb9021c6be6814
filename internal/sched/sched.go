// Package sched implements the CROPHE scheduling framework (§V): it
// searches the hierarchical cross-operator dataflow design space —
// sequential execution → temporal pipelining/sharing → spatial
// pipelining/sharing — for a workload graph on a hardware configuration,
// using an analytical cost model, and also implements the MAD baseline
// scheduling policy the paper compares against.
//
// The search follows the paper's bottom-up composition: operators (in a
// deterministic topological order) are grouped into spatial
// pipelining/sharing groups of bounded size, groups are costed with the
// analytical model, and dynamic programming concatenates the best groups
// over the whole graph (§V-D). Redundant subgraphs are costed once via the
// workload's segment × count representation.
package sched

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/parallel"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// Dataflow selects the scheduling policy.
type Dataflow int

// Scheduling policies.
const (
	// DataflowMAD is the prior-work policy [2]: limited pairwise operator
	// fusion, O(1)/O(β) caching of intermediates, no auxiliary-data
	// sharing, and whole-tensor spills at orientation switches.
	DataflowMAD Dataflow = iota
	// DataflowCROPHE is the full framework of §V-A: fine-grained spatial/
	// temporal pipelining of intermediates and sharing of auxiliaries.
	DataflowCROPHE
)

// String implements fmt.Stringer.
func (d Dataflow) String() string {
	if d == DataflowMAD {
		return "mad"
	}
	return "crophe"
}

// LookupDataflow maps a policy name, as String spells it ("" is the
// default, "crophe"), to its Dataflow. Every command and the server
// resolve policy names here, so an unknown spelling is rejected.
func LookupDataflow(name string) (Dataflow, bool) {
	switch name {
	case "", "crophe":
		return DataflowCROPHE, true
	case "mad":
		return DataflowMAD, true
	}
	return 0, false
}

// Options tunes a scheduling run.
type Options struct {
	Dataflow     Dataflow
	MaxGroupSize int // spatial group size bound (paper: 7–10)
	Clusters     int // CROPHE-p data-parallel clusters (1 = off)
	// UniformAlloc replaces the load-proportional PE allocation of §IV-B
	// with an equal split — an ablation knob showing why proportional
	// allocation matters for pipeline balance.
	UniformAlloc bool
	// SearchBudget bounds the anytime search: the DP may cost at most this
	// many multi-operator candidate groups before the search is cut and the
	// remaining workload is scheduled with solo groups (always feasible, so
	// a valid best-so-far schedule is still returned, flagged Partial).
	// Zero means unlimited. Solo (k=1) candidates never consume budget —
	// they are the fallback, not the search. The budget is the
	// deterministic twin of a wall-clock deadline: the same budget cuts at
	// the same candidate on every run (see budgetForDeadline).
	SearchBudget int
}

// DefaultOptions returns the configuration used throughout the evaluation.
func DefaultOptions(d Dataflow) Options {
	return Options{Dataflow: d, MaxGroupSize: 8, Clusters: 1}
}

// Model calibration constants. These stand in for the microarchitectural
// detail of the paper's RTL + trace simulation; they are fixed across all
// designs so comparisons remain apples-to-apples.
const (
	// effPipelined is the PE efficiency inside a fine-grained spatial
	// pipeline (NoC forwarding and allocation rounding overheads).
	effPipelined = 0.85
	// effSoloHomogeneous is the efficiency of mapping a single operator
	// across the whole homogeneous PE array without pipelining — the
	// utilisation problem §VII-D attributes to MAD-on-CROPHE-hardware:
	// MAD's per-operator mapping was designed for few-cluster baselines
	// and leaves most of the large PE array idle.
	effSoloHomogeneous = 0.25
	// effSpecialized is the efficiency of a dedicated functional unit on
	// the baseline accelerators.
	effSpecialized = 0.9
	// prngEvkFactor halves evk DRAM traffic (PRNG regeneration of the
	// random half, applied to all designs, §VI).
	prngEvkFactor = 0.5
	// spillRoundTrip: write + read for materialised tensors.
	spillRoundTrip = 2.0
	// perOpPECap bounds how many PEs one operator's multi-dimensional
	// decomposition can use efficiently (intra-PE lanes × inter-PE NoC ×
	// temporal iteration, §IV-B).
	perOpPECap = 10
	// interSpillFrac bounds how much of the global buffer a single
	// materialised intermediate may claim: several tensors plus streamed
	// auxiliaries are live at once, so a tensor larger than this fraction
	// of the capacity spills to DRAM. This is what breaks coarse-grained
	// dataflow at the small capacities of Figure 10.
	interSpillFrac = 0.33
)

// Traffic accumulates bytes by memory level.
type Traffic struct {
	DRAM      float64
	SRAM      float64
	NoC       float64
	Transpose float64
}

// Add accumulates.
func (t *Traffic) Add(o Traffic) {
	t.DRAM += o.DRAM
	t.SRAM += o.SRAM
	t.NoC += o.NoC
	t.Transpose += o.Transpose
}

// Scale multiplies all levels.
func (t Traffic) Scale(f float64) Traffic {
	return Traffic{DRAM: t.DRAM * f, SRAM: t.SRAM * f, NoC: t.NoC * f, Transpose: t.Transpose * f}
}

// Utilization summarises resource usage over a schedule (Table IV).
type Utilization struct {
	PE   float64
	NoC  float64
	SRAM float64
	DRAM float64
}

// GroupSchedule is one spatial pipelining/sharing group: a contiguous run
// of operators co-resident on the PE array.
type GroupSchedule struct {
	Nodes     []*graph.Node
	TimeSec   float64
	Compute   float64 // seconds bound by PE throughput
	Traffic   Traffic
	Pipelined int // intra-group fine-pipelined edges
	// AuxShared is meant to count the aux fetches saved by intra-group
	// sharing. It is not computed yet and is always 0: sharing is priced
	// at the segment level (collectAuxUses), not per group (see ROADMAP,
	// "Explainable, honest search").
	AuxShared int
	// PEAlloc is the fine-grained pipeline's PE allocation of each
	// operator, in Nodes order; nil when the group has none.
	PEAlloc []int
	// ResidentBytes is the SRAM working set the group occupies while it
	// runs: materialised intermediates (whole tensors) for coarse
	// dataflow, granule buffers for fine-grained pipelines. This crowds
	// out resident auxiliaries (§VII-C).
	ResidentBytes float64
}

// SegmentSchedule is the scheduled form of one workload segment.
type SegmentSchedule struct {
	Name    string
	Count   int
	TimeSec float64 // per execution
	Groups  []GroupSchedule
	Traffic Traffic // per execution
	// Traffic provenance (per execution), for the Figure 11 breakdown.
	AuxDRAM float64 // auxiliary (evk/pt) streaming + fills
	MatDRAM float64 // spilled materialised intermediates
}

// Schedule is the result for a whole workload.
type Schedule struct {
	Workload string
	HW       string
	Opt      Options
	// Clusters is the effective CROPHE-p cluster count: Opt.Clusters
	// clamped to the workload's data parallelism and the PE count, and
	// at least 1. Per-task time divides by it.
	Clusters int
	// Rot and RHyb name the rotation structure of the candidate graph
	// Design.Evaluate picked; d.Prepare(factory(Rot, RHyb)) is the
	// workload the schedule was searched over. A direct Run leaves them
	// zero.
	Rot      workload.RotMode
	RHyb     int
	TimeSec  float64
	Traffic  Traffic
	Util     Utilization
	Segments []SegmentSchedule
	// Partial reports that the anytime search was cut — by an exhausted
	// SearchBudget or an expired context — before exploring every
	// candidate group. The schedule is still valid end to end (every
	// operator is scheduled; the unexplored tail runs as solo groups),
	// just not the best the full search would find.
	Partial bool
}

// budgetForDeadline converts a wall-clock deadline into a deterministic
// candidate budget. Deadlines are quantised to power-of-two buckets so
// that runs whose deadlines land in the same bucket explore exactly the
// same candidates and return bit-identical schedules — wall-clock time
// never decides where the search cuts, only which bucket it starts in.
// The calibration (candidates per millisecond) is deliberately
// conservative so the budget cut fires before the context backstop.
func budgetForDeadline(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	const candidatesPerMs = 2000
	b := int(d.Milliseconds()) * candidatesPerMs
	if b < 1 {
		b = 1
	}
	bucket := 1
	for bucket <= b/2 {
		bucket *= 2
	}
	return bucket
}

// searchState threads the anytime cut through one Schedule call: the
// remaining multi-operator candidate budget and the context backstop.
// Once cut, the DP stops proposing k>1 groups and finishes the workload
// with solo groups, which are always feasible.
type searchState struct {
	done   <-chan struct{} // nil when the context cannot expire
	budget int             // remaining k>1 candidates; <0 = unlimited
	cut    bool
}

func newSearchState(ctx context.Context, budget int) *searchState {
	if budget <= 0 {
		budget = -1 // unlimited
	}
	return &searchState{done: ctx.Done(), budget: budget}
}

// charge consumes one unit of multi-operator budget, reporting whether
// the candidate may be explored.
func (st *searchState) charge() bool {
	if st.cut {
		return false
	}
	if st.budget == 0 {
		st.cut = true
		return false
	}
	if st.budget > 0 {
		st.budget--
	}
	return true
}

// poll is the context backstop, checked once per DP row: an expired or
// cancelled context cuts the search exactly like an exhausted budget.
func (st *searchState) poll() {
	if st.cut || st.done == nil {
		return
	}
	select {
	case <-st.done:
		st.cut = true
	default:
	}
}

// unbounded reports that the search can never be cut: no budget and a
// context that cannot expire. Only then is the state read-only for the
// whole search, so segments may be searched concurrently with their
// schedules still independent of which ran first.
func (st *searchState) unbounded() bool {
	return st.budget < 0 && st.done == nil
}

// Search telemetry: cumulative, process-global counters of the dataflow
// search (§V-D). They are always-on atomics updated once per scheduled
// segment (not per candidate), so the cost is unmeasurable; crophe-bench
// records per-experiment deltas and a per-run telemetry.Collector (see
// Scheduler.WithTelemetry) mirrors them as counters.
var (
	statCandidates atomic.Uint64 // candidate groups costed by the DP
	statCacheHits  atomic.Uint64 // segment-schedule memo hits
	statCacheMiss  atomic.Uint64 // segment-schedule memo misses
)

// SearchStats is a snapshot of the cumulative search counters.
type SearchStats struct {
	Candidates uint64
	// Pruned counts candidates rejected as infeasible. The cost model
	// has no capacity rule that rejects a group, so it stays 0.
	Pruned      uint64
	CacheHits   uint64
	CacheMisses uint64
}

// Stats returns the cumulative process-wide search counters.
func Stats() SearchStats {
	return SearchStats{
		Candidates:  statCandidates.Load(),
		CacheHits:   statCacheHits.Load(),
		CacheMisses: statCacheMiss.Load(),
	}
}

// Scheduler binds a hardware configuration and options. It is safe for
// concurrent use: concurrent runs share its segment memo, and each
// segment search works in scratch of its own.
type Scheduler struct {
	HW  *arch.HWConfig
	Opt Options

	// tel, when enabled, receives per-run search counters (candidates
	// explored, pruned, memo hits). Set with WithTelemetry.
	tel *telemetry.Collector

	// priceHW, when set, re-prices the chosen group compositions on a
	// second (typically derated) configuration. Set with WithPricing.
	priceHW *arch.HWConfig

	// segCache memoises segment schedules by graph identity — the
	// paper's redundancy merge ("searches only once", §V-D), for the
	// segment graphs a workload factory shares between its rotation
	// candidates. The Scheduler is bound to one hardware configuration
	// and option set, so (graph, cluster count, count) is the whole key.
	// It is single-flight: the first caller of a key searches it while
	// later callers wait on its entry. mu guards the map, not the entries.
	mu       sync.Mutex
	segCache map[segKey]*segEntry
}

// segEntry is one key of the segment memo. done is closed once the
// search that created the entry has finished; ok then says whether ss
// holds its result. A failed, panicked or cut search leaves ok false and
// removes the entry, so its waiters search the key again.
type segEntry struct {
	done chan struct{}
	ss   SegmentSchedule
	ok   bool
}

type segKey struct {
	g        *graph.Graph
	clusters int
	count    int // residency amortisation depends on the repetition count
}

// New creates a scheduler.
func New(hw *arch.HWConfig, opt Options) *Scheduler {
	if opt.MaxGroupSize < 1 {
		opt.MaxGroupSize = 1
	}
	if opt.Clusters < 1 {
		opt.Clusters = 1
	}
	return &Scheduler{HW: hw, Opt: opt, segCache: make(map[segKey]*segEntry)}
}

// WithTelemetry attaches a collector that receives the run's search
// counters (sched/candidates, sched/pruned, sched/seg_cache_hits,
// sched/seg_cache_misses). Returns the scheduler for chaining:
//
//	sched.New(hw, opt).WithTelemetry(tel).Run(w)
//
// A nil collector leaves telemetry disabled.
func (s *Scheduler) WithTelemetry(c *telemetry.Collector) *Scheduler {
	s.tel = c
	return s
}

// WithPricing splits the schedule into a composition search and a cost
// model: group compositions are searched on the scheduler's own (base)
// configuration, then the chosen groups are re-priced on hw — the
// degraded effective view of a faulted machine. The split is what makes
// graceful degradation monotone: the DP optimises the sum of group
// times, but the final segment cost adds composition-dependent
// residency and spill terms, so letting a derated view steer the search
// can land on a composition that happens to beat the healthy one.
// Pricing a fault-independent composition on the derated view charges
// every lost resource without that luck. Feasibility is checked against
// the pricing view (a dead resource class is ErrInfeasible). A nil hw
// restores single-configuration behaviour. Returns the scheduler for
// chaining.
func (s *Scheduler) WithPricing(hw *arch.HWConfig) *Scheduler {
	s.priceHW = hw
	return s
}

// pricing is the configuration the schedule is priced on: the one set
// with WithPricing, else the scheduler's own.
func (s *Scheduler) pricing() *arch.HWConfig {
	if s.priceHW != nil {
		return s.priceHW
	}
	return s.HW
}

// Run schedules a workload and returns the full result, panicking on the
// error paths of Schedule — a dead resource class or a cyclic workload
// graph, both invariant violations for the healthy configurations and
// well-formed workloads of the evaluation. Degraded-mode callers (fault
// sweeps, anytime search) use Schedule directly.
func (s *Scheduler) Run(w *workload.Workload) *Schedule {
	return s.runAll([]*workload.Workload{w})[0]
}

// runAll is Run over several workloads searched together (see
// scheduleAll).
func (s *Scheduler) runAll(ws []*workload.Workload) []*Schedule {
	out, err := s.scheduleAll(context.Background(), ws)
	if err != nil {
		panic(fmt.Sprintf("sched: Run(%s on %s): %v", ws[0].Name, s.HW.Name, err))
	}
	return out
}

// Schedule schedules a workload and returns the full result. With
// Clusters > 1 (CROPHE-p), the PE array is statically partitioned; each
// cluster runs independent data-parallel instances and the auxiliary
// constants are multicast once to all clusters, so per-task time divides
// by the cluster count (bounded by the workload's available data
// parallelism).
//
// Schedule is the anytime entry point: an exhausted Opt.SearchBudget or
// an expired/cancelled ctx cuts the candidate search, and the remaining
// operators are scheduled as solo groups — still a valid end-to-end
// schedule, returned with Partial set, never an error. Errors are
// reserved for workloads this machine cannot run at all: a hardware
// configuration with a dead resource class (errors.Is ErrInfeasible) or
// a cyclic segment graph (*CycleError).
func (s *Scheduler) Schedule(ctx context.Context, w *workload.Workload) (*Schedule, error) {
	out, err := s.scheduleAll(ctx, []*workload.Workload{w})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// segItem is one segment search of scheduleAll: segment seg of the
// workload of run r, under memo key key (set by entryLocked).
type segItem struct {
	r   *searchRun
	seg int
	key segKey
}

// searchRun is scheduleAll's state for one workload: its search state,
// cluster views and the schedule being filled in.
type searchRun struct {
	w         *workload.Workload
	st        *searchState
	clusters  int
	hw, price *arch.HWConfig // per-cluster views of s.HW and s.pricing()
	out       *Schedule
	errs      []error // by segment
}

// scheduleAll schedules each of ws as Schedule does, searching all their
// segments in one loop: workload by workload, each in segment order.
// When no search can be cut, the loop runs on up to Workers() pool
// workers; otherwise one segment at a time, because a budget is spent in
// segment order. Items that share a memo key share its graph, so a
// search's result does not depend on which of them runs it, and the
// schedules are the serial loop's bit for bit. Each schedule is summed
// serially in segment order.
func (s *Scheduler) scheduleAll(ctx context.Context, ws []*workload.Workload) ([]*Schedule, error) {
	price := s.pricing()
	// Feasibility is a property of the machine the schedule will run on
	// — the pricing (effective) view when one is set.
	if err := validateHW(price); err != nil {
		return nil, err
	}
	hw := s.HW
	runs := make([]searchRun, len(ws))
	var items []segItem
	workers := parallel.Workers()
	for k, w := range ws {
		r := &runs[k]
		r.w = w
		r.st = newSearchState(ctx, s.Opt.SearchBudget)
		if !r.st.unbounded() {
			workers = 1
		}
		clusters := s.Opt.Clusters
		if clusters > w.DataParallel {
			clusters = w.DataParallel
		}
		if clusters > hw.NumPEs {
			clusters = hw.NumPEs
		}
		if clusters < 1 {
			clusters = 1
		}
		r.clusters = clusters
		r.hw = clusterView(hw, clusters)
		r.price = r.hw
		if price != hw {
			r.price = clusterView(price, clusters)
		}
		r.out = &Schedule{Workload: w.Name, HW: hw.Name, Opt: s.Opt, Clusters: clusters,
			Segments: make([]SegmentSchedule, len(w.Segments))}
		r.errs = make([]error, len(w.Segments))
		for i := range w.Segments {
			items = append(items, segItem{r: r, seg: i})
		}
	}

	parallel.ClaimEach(workers, len(items), func(j int) bool {
		it := &items[j]
		s.mu.Lock()
		e, owner := s.entryLocked(it)
		s.mu.Unlock()
		var err error
		it.r.out.Segments[it.seg], err = s.searchSegment(it, e, owner)
		it.r.errs[it.seg] = err
		return err == nil
	})

	out := make([]*Schedule, len(runs))
	for k := range runs {
		var err error
		if out[k], err = s.finish(&runs[k]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// finish sums a run's segment schedules into its schedule, or returns
// the error of its first failed segment. Items are claimed in order, so
// every segment before a failed one was searched and this is the error
// a serial loop returns.
func (s *Scheduler) finish(r *searchRun) (*Schedule, error) {
	out, clusterPrice, clusters := r.out, r.price, r.clusters
	var busyPE, busyNoC, busySRAM, busyDRAM float64
	for i, ss := range out.Segments {
		if r.errs[i] != nil {
			return nil, r.errs[i]
		}
		out.TimeSec += ss.TimeSec * float64(ss.Count)
		out.Traffic.Add(ss.Traffic.Scale(float64(ss.Count)))
		c := float64(ss.Count)
		for _, g := range ss.Groups {
			busyPE += g.Compute * c
		}
		busyNoC += ss.Traffic.NoC / nocBandwidth(clusterPrice) * c
		busySRAM += ss.Traffic.SRAM / (clusterPrice.SRAMBandwidthTBs * 1e12) * c
		busyDRAM += ss.Traffic.DRAM / (clusterPrice.DRAMBandwidthTBs * 1e12) * c
	}
	// CROPHE-p: per-task time divides by the active clusters.
	out.TimeSec /= float64(clusters)

	if out.TimeSec > 0 {
		wall := out.TimeSec * float64(clusters) // wall time per cluster batch
		_ = busyPE
		out.Util = Utilization{
			// PE utilisation is useful work over chip peak — the metric
			// under which Table IV's specialised baselines score low
			// (their idle unit classes count as waste).
			PE:   clampFrac(float64(r.w.TotalModMuls()) / (s.pricing().PeakModMulsPerSec() * out.TimeSec)),
			NoC:  clampFrac(busyNoC / wall),
			SRAM: clampFrac(busySRAM / wall),
			DRAM: clampFrac(busyDRAM / wall / float64(clusters)),
		}
	}
	out.Partial = r.st.cut
	if r.st.cut && s.tel.Enabled() {
		s.tel.EmitCounter("sched/search_cut", 1)
	}
	return out, nil
}

// clusterView is the per-cluster slice of a configuration under static
// partitioning (CROPHE-p): compute, buffer capacity and bandwidths all
// divide by the cluster count. DRAM bandwidth is chip-wide; each cluster
// sees its slice for private data, but shared aux is fetched once
// (handled at the segment level).
func clusterView(hw *arch.HWConfig, clusters int) *arch.HWConfig {
	if clusters <= 1 {
		return hw
	}
	c := hw.Clone()
	c.NumPEs = hw.NumPEs / clusters
	c.SRAMCapacityMB = hw.SRAMCapacityMB / float64(clusters)
	c.SRAMBandwidthTBs = hw.SRAMBandwidthTBs / float64(clusters)
	c.DRAMBandwidthTBs = hw.DRAMBandwidthTBs / float64(clusters)
	return c
}

func clampFrac(f float64) float64 {
	if f > 1 {
		return 1
	}
	if f < 0 {
		return 0
	}
	return f
}

// entryLocked sets the memo key of item it and returns the key's entry,
// creating it when there is none yet; owner reports that it did, and
// that it must search the segment and fill the entry. Once the anytime
// search is cut, the memo is bypassed in both directions (nil entry):
// degraded (solo-group) schedules must not poison the cache, and cached
// full-search results must not leak into a cut run — the cut point, not
// wall-clock luck, decides what a budgeted run returns. s.mu must be
// held.
func (s *Scheduler) entryLocked(it *segItem) (e *segEntry, owner bool) {
	r := it.r
	if r.st.cut {
		return nil, false
	}
	seg := r.w.Segments[it.seg]
	it.key = segKey{g: seg.G, clusters: r.clusters, count: seg.Count}
	if e, found := s.segCache[it.key]; found {
		return e, false
	}
	e = &segEntry{done: make(chan struct{})}
	s.segCache[it.key] = e
	return e, true
}

// searchSegment returns the schedule of item it's segment: the DP group
// composition over its graph, memoised in entry e (see entryLocked).
func (s *Scheduler) searchSegment(it *segItem, e *segEntry, owner bool) (SegmentSchedule, error) {
	r := it.r
	seg := r.w.Segments[it.seg]
	for {
		switch {
		case e == nil:
			s.countMiss()
			return s.scheduleSegmentUncached(r.hw, r.price, seg, r.clusters, r.st)
		case owner:
			return s.fill(e, it)
		}
		<-e.done
		if e.ok {
			statCacheHits.Add(1)
			if s.tel.Enabled() {
				s.tel.EmitCounter("sched/seg_cache_hits", 1)
			}
			out := e.ss
			out.Name = seg.Name // the key holds the graph and count, not the name
			return out, nil
		}
		// The owner's search failed or was cut, and the entry is gone.
		s.mu.Lock()
		e, owner = s.entryLocked(it)
		s.mu.Unlock()
	}
}

// fill searches the segment of item it for memo entry e, which it owns,
// and publishes the result to e's waiters. The entry is closed on every exit
// path; one that does not end with a memoisable schedule is first
// removed from the memo.
func (s *Scheduler) fill(e *segEntry, it *segItem) (out SegmentSchedule, err error) {
	defer func() {
		if !e.ok {
			s.mu.Lock()
			delete(s.segCache, it.key)
			s.mu.Unlock()
		}
		close(e.done)
	}()
	r := it.r
	s.countMiss()
	out, err = s.scheduleSegmentUncached(r.hw, r.price, r.w.Segments[it.seg], r.clusters, r.st)
	if err == nil && !r.st.cut {
		e.ss, e.ok = out, true
	}
	return out, err
}

func (s *Scheduler) countMiss() {
	statCacheMiss.Add(1)
	if s.tel.Enabled() {
		s.tel.EmitCounter("sched/seg_cache_misses", 1)
	}
}

// dpScratch is the working memory of one segment search: the candidate
// pricer, the DP table and the buffers of the segment-level passes. A
// search takes one from scratchPool and puts it back when done, so
// concurrent searches each work in their own and a worker reuses one
// from segment to segment.
type dpScratch struct {
	pricer   groupPricer
	best     []dpCell
	groupOf  []int
	order    orderScratch
	tensors  []matTensor
	cross    []*graph.Edge
	aux      []auxUse
	auxOrder []int
	auxIndex map[string]int
	auxPairs []auxGroup
}

// dpCell is one DP state: the minimal time to schedule nodes[0..i),
// reached from the group nodes[prev..i).
type dpCell struct {
	time float64
	prev int // -1 while no composition reaches the cell
}

var scratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// resized returns buf with length n and every element zero, reusing its
// storage when it is large enough.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (s *Scheduler) scheduleSegmentUncached(hw, price *arch.HWConfig, seg workload.Segment, clusters int, st *searchState) (SegmentSchedule, error) {
	sc := scratchPool.Get().(*dpScratch)
	defer scratchPool.Put(sc)
	var nodes []*graph.Node
	if s.Opt.Dataflow == DataflowCROPHE {
		// Aux-affinity order: place consumers of the same auxiliary data
		// adjacently (when dependencies allow) so spatial sharing groups
		// can stream one evk to all of them — the sharing opportunity
		// hybrid rotation creates across coarse steps (§V-C).
		ordered, err := sc.order.auxAffinityOrder(seg.G)
		if err != nil {
			if ce, ok := err.(*CycleError); ok {
				ce.Segment = seg.Name
			}
			return SegmentSchedule{}, err
		}
		nodes = ordered
	} else {
		topo := seg.G.TopologicalPrefix()
		if len(topo) != len(seg.G.Nodes) {
			return SegmentSchedule{}, &CycleError{Segment: seg.Name, Ordered: len(topo), Total: len(seg.G.Nodes)}
		}
		nodes = slices.DeleteFunc(topo, func(n *graph.Node) bool { return !n.Kind.IsCompute() })
	}
	n := len(nodes)
	if n == 0 {
		return SegmentSchedule{Name: seg.Name, Count: seg.Count}, nil
	}

	maxK := s.Opt.MaxGroupSize
	if s.Opt.Dataflow == DataflowMAD {
		maxK = 2 // MAD: only pairwise fusion of adjacent operators
	}

	// DP over the topological order: best[i] = minimal time to schedule
	// nodes[0..i), reached from the group nodes[prev..i). Candidates are
	// only priced, each by extending the previous one of its row by one
	// operator; the chosen groups are materialised afterwards.
	best := resized(sc.best, n+1)
	sc.best = best
	for i := range best {
		best[i].prev = -1
	}
	best[0].prev = 0
	// Search telemetry accumulates locally inside the DP loop (the hot
	// path) and publishes once per segment below.
	var candidates uint64
	for i := 0; i < n; i++ {
		st.poll()
		p := sc.pricer.newGroup(hw, s.Opt)
		for k := 1; k <= maxK && i+k <= n; k++ {
			// Solo groups are the always-feasible fallback and run even
			// after the anytime cut, so every cell is reached; multi-
			// operator candidates are the search proper and each costs
			// one unit of budget.
			if k > 1 && !st.charge() {
				break
			}
			candidates++
			p.add(nodes[i+k-1])
			gt, _ := p.price()
			t := best[i].time + gt
			if best[i+k].prev < 0 || t < best[i+k].time {
				best[i+k] = dpCell{time: t, prev: i}
			}
		}
	}
	statCandidates.Add(candidates)
	if s.tel.Enabled() {
		s.tel.EmitCounter("sched/candidates", float64(candidates))
		// No candidate is ever rejected (see SearchStats.Pruned).
		s.tel.EmitCounter("sched/pruned", 0)
	}

	// Reconstruct the chosen groups: count them, then fill back to front.
	ng := 0
	for i := n; i > 0; i = best[i].prev {
		ng++
	}
	groups := make([]GroupSchedule, ng)
	for i := n; i > 0; i = best[i].prev {
		ng--
		groups[ng].Nodes = nodes[best[i].prev:i]
	}

	// Materialise the chosen groups. Under degraded pricing (see
	// WithPricing) the composition above was searched on the base
	// configuration; the chosen groups are re-costed on the effective
	// view so the schedule charges every lost resource. The PE
	// allocation keeps the base layout — placement geometry is a
	// logical-design decision that must not re-roll under faults (the
	// mapper remaps failed rows onto survivors); the lost compute is
	// charged through the re-priced stage times.
	for gi := range groups {
		g := sc.pricer.costGroup(hw, s.Opt, groups[gi].Nodes)
		if price != hw {
			alloc := g.PEAlloc
			g = sc.pricer.costGroup(price, s.Opt, g.Nodes)
			g.PEAlloc = alloc
		}
		groups[gi] = g
	}
	hw = price

	ss := SegmentSchedule{Name: seg.Name, Count: seg.Count, Groups: groups}
	var comp float64
	for _, g := range groups {
		ss.Traffic.Add(g.Traffic)
		comp += g.Compute
	}

	// ---- Cross-group intermediates: temporal pipelining vs residency.
	//
	// A single-consumer, stream-compatible boundary edge is temporally
	// pipelined through the global buffer at granule size (CROPHE's
	// temporal pipelining; MAD's O(1)/O(β) caching is the same mechanism
	// restricted to its own streamable pairs). Multi-consumer tensors —
	// the BSGS baby ciphertexts reused across every giant step, hoisted
	// digits, psum accumulators — must stay materialised over their whole
	// live range; when their peak footprint exceeds the buffer, the
	// overflow round-trips through DRAM. This capacity pressure dominates
	// the Figure 10 sweep.
	fine := s.Opt.Dataflow == DataflowCROPHE
	groupOf := resized(sc.groupOf, len(seg.G.Nodes)) // by node ID; 0 for non-compute nodes
	sc.groupOf = groupOf
	for gi, g := range groups {
		for _, n := range g.Nodes {
			groupOf[n.ID] = gi
		}
	}
	wb := hw.WordBytes()
	tensors := sc.tensors[:0]
	crossConsumers := sc.cross
	for _, n := range nodes {
		crossConsumers = crossConsumers[:0]
		for _, e := range n.OutEdges {
			if e.Class != graph.Intermediate || !e.To.Kind.IsCompute() {
				continue
			}
			if groupOf[e.To.ID] != groupOf[n.ID] {
				crossConsumers = append(crossConsumers, e)
			}
		}
		if len(crossConsumers) == 0 {
			continue
		}
		bytes := n.Out.Bytes(wb)
		if len(crossConsumers) == 1 && canPipeline(crossConsumers[0], hw) {
			// Temporal pipelining: the consumer runs next on the same
			// PEs, so chunks stay in the register files / local buffers
			// (MAD's O(1)/O(β) caching is the restricted special case).
			ss.Traffic.NoC += 2 * bytes
			continue
		}
		if len(crossConsumers) == 1 &&
			(n.Kind == graph.OpTranspose || crossConsumers[0].To.Kind == graph.OpTranspose) &&
			hw.TransposeMB > 0 && perLimbBytes(n.Out, wb) <= hw.TransposeMB*1e6 {
			// Edges into/out of a transpose run through the dedicated
			// transpose unit regardless of group boundaries (§IV-B).
			ss.Traffic.Transpose += 2 * bytes
			continue
		}
		// Materialised for the span producer group → last consumer group.
		first := groupOf[n.ID]
		last := first
		allStream := true
		for _, e := range crossConsumers {
			if gi := groupOf[e.To.ID]; gi > last {
				last = gi
			}
			if !canPipeline(e, hw) {
				allStream = false
			}
		}
		if fine && allStream {
			// Multicast streaming (Figure 6): every consumer streams at a
			// matched loop order, so the producer's chunks are multicast
			// over the NoC (tree multicast, §IV-A) at granule size and
			// never materialised — the hoisted digits / baby-ciphertext
			// case, and (with NTT decomposition) whole key-switch
			// pipelines.
			ss.Traffic.NoC += bytes * float64(1+len(crossConsumers))
			continue
		}
		rangeFrac := float64(last-first+1) / float64(len(groups))
		tensors = append(tensors, matTensor{
			bytes:    bytes,
			traffic:  bytes * float64(1+len(crossConsumers)),
			weighted: bytes * rangeFrac,
		})
	}
	sc.tensors, sc.cross = tensors, crossConsumers
	// Greedy residency: keep the hottest tensors (traffic per occupied
	// byte) in the buffer share reserved for intermediates; the rest
	// round-trip through DRAM.
	sortTensors(tensors)
	capBytes := hw.SRAMCapacityMB * 1e6
	interBudget := capBytes * interSpillFrac * 2
	var sramShare float64
	for _, t := range tensors {
		if t.weighted <= interBudget {
			interBudget -= t.weighted
			sramShare += t.weighted
			ss.Traffic.SRAM += t.traffic
		} else {
			ss.Traffic.DRAM += t.traffic
			ss.MatDRAM += t.traffic
		}
	}

	// ---- Auxiliary data: residency and sharing (the §V-A sharing axis).
	//
	// Every policy may keep auxiliaries resident in the global buffer —
	// this is how the large-SRAM baselines hold their evk working sets.
	// The policies differ in how many times an aux must be *delivered*:
	// MAD delivers once per consuming operator; CROPHE's fine-grained
	// spatial/temporal sharing delivers once per co-running group.
	aux := s.collectAuxUses(sc, hw, seg, groupOf)
	// The aux residency budget is the capacity left after the resident
	// intermediates and the largest granule working set any group pins —
	// the §VII-C effect: fine-grained pipelining buffers only granules,
	// so most of the buffer can hold evks; coarse dataflow pins tensors.
	var maxWS float64
	for _, g := range groups {
		if g.ResidentBytes > maxWS {
			maxWS = g.ResidentBytes
		}
	}
	budget := capBytes - sramShare - maxWS
	if budget < 0 {
		budget = 0
	}
	auxT := Traffic{}
	// Greedy residency by saved bytes (uses−1)·size, a knapsack heuristic.
	order := resized(sc.auxOrder, len(aux))
	sc.auxOrder = order
	for i := range order {
		order[i] = i
	}
	sortBySavings(aux, order, seg.Count)
	for _, i := range order {
		a := aux[i]
		totalUses := float64(a.uses * seg.Count)
		if a.bytes <= budget && totalUses > 1 {
			// Resident: one DRAM fill, then on-chip reads per use. The
			// per-execution share of the single fill is 1/Count.
			budget -= a.bytes
			auxT.DRAM += a.bytes / float64(seg.Count)
			auxT.SRAM += a.bytes * float64(a.uses)
			auxT.NoC += a.bytes * float64(a.uses)
		} else {
			// Streamed from DRAM on every use.
			auxT.DRAM += a.bytes * float64(a.uses)
			auxT.NoC += a.bytes * float64(a.uses)
		}
	}
	// CROPHE-p: auxiliaries are fetched and multicast once to all
	// clusters (tree multicast in the NoC, §IV-A), so the per-task DRAM,
	// buffer-read and NoC shares all divide by the cluster count.
	if clusters > 1 {
		c := float64(clusters)
		auxT.DRAM /= c
		auxT.SRAM /= c
		auxT.NoC /= c
	}
	ss.AuxDRAM = auxT.DRAM
	ss.Traffic.Add(auxT)

	// The segment is bound by the max of compute and each memory level.
	ss.TimeSec = maxOf(
		comp,
		ss.Traffic.DRAM/(hw.DRAMBandwidthTBs*1e12),
		ss.Traffic.SRAM/(hw.SRAMBandwidthTBs*1e12),
		ss.Traffic.NoC/nocBandwidth(hw),
		ss.Traffic.Transpose/(hw.SRAMBandwidthTBs*1e12*0.5),
	)
	return ss, nil
}

type auxUse struct {
	id    string
	bytes float64
	uses  int
}

// auxGroup is one use of auxiliary aux (its index in collectAuxUses'
// output) by an operator of group group.
type auxGroup struct{ aux, group int }

// collectAuxUses gathers per-aux delivery counts under the active policy;
// groupOf maps a node ID to the index of its group. The result lives in
// sc until its next search.
func (s *Scheduler) collectAuxUses(sc *dpScratch, hw *arch.HWConfig, seg workload.Segment, groupOf []int) []auxUse {
	fine := s.Opt.Dataflow == DataflowCROPHE
	// One index per segment numbers the auxiliaries in first-use order;
	// the (aux, group) pair of every use, sorted, yields each aux's
	// distinct consuming groups without a set per aux.
	if sc.auxIndex == nil {
		sc.auxIndex = map[string]int{}
	}
	index := sc.auxIndex
	clear(index)
	out := sc.aux[:0]
	pairs := sc.auxPairs[:0]
	for _, n := range seg.G.Nodes {
		for _, e := range n.OutEdges {
			if e.Class != graph.Auxiliary {
				continue
			}
			i, ok := index[e.AuxID]
			if !ok {
				b := e.Shape.Bytes(hw.WordBytes())
				if isEvk(e.AuxID) {
					b *= prngEvkFactor // PRNG regeneration of the a-half
				} else if isPlaintext(e.AuxID) && e.Shape.Limbs > 1 {
					// OF-Limb [34]: plaintexts are stored at one limb
					// and extended on-chip.
					b /= float64(e.Shape.Limbs)
				}
				i = len(out)
				index[e.AuxID] = i
				out = append(out, auxUse{id: e.AuxID, bytes: b})
			}
			if fine {
				pairs = append(pairs, auxGroup{i, groupOf[e.To.ID]})
			} else {
				out[i].uses++ // one delivery per consuming operator
			}
		}
	}
	if fine {
		// One delivery per distinct consuming group.
		slices.SortFunc(pairs, func(a, b auxGroup) int {
			if c := cmp.Compare(a.aux, b.aux); c != 0 {
				return c
			}
			return cmp.Compare(a.group, b.group)
		})
		for k, p := range pairs {
			if k == 0 || p != pairs[k-1] {
				out[p.aux].uses++
			}
		}
	}
	sc.aux, sc.auxPairs = out, pairs
	// The residency greedy sorts by savings with a stable tie order, so
	// ties resolve by this order: by aux ID, not by graph encounter order.
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// matTensor is a materialised cross-group intermediate: its size, total
// traffic, and average buffer occupancy (size × live-range fraction).
type matTensor struct {
	bytes    float64
	traffic  float64
	weighted float64
}

// sortTensors orders materialised tensors by descending traffic per
// occupied byte, so the residency greedy keeps the hottest data on-chip.
func sortTensors(ts []matTensor) {
	sort.Slice(ts, func(i, j int) bool {
		wi, wj := ts[i].weighted, ts[j].weighted
		if wi == 0 {
			wi = 1
		}
		if wj == 0 {
			wj = 1
		}
		return ts[i].traffic/wi > ts[j].traffic/wj
	})
}

// sortBySavings orders aux indices by descending residency benefit.
func sortBySavings(aux []auxUse, order []int, count int) {
	saving := func(i int) float64 {
		return float64(aux[i].uses*count-1) * aux[i].bytes
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && saving(order[j]) > saving(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

func isEvk(auxID string) bool {
	return len(auxID) >= 4 && auxID[:4] == "evk:"
}

func isPlaintext(auxID string) bool {
	return len(auxID) >= 3 && auxID[:3] == "pt:"
}

// groupPricer prices a candidate group that grows one operator at a
// time. The DP's candidates from node i are nodes[i:i+1], nodes[i:i+2],
// …, and every running sum of the cost model — loads, traffic, pipelined
// edges, resident bytes — over nodes[i:i+k] is the sum over
// nodes[i:i+k-1] plus the k-th operator's terms, added in the same
// order. Extending a group therefore yields, bit for bit, the cost of
// pricing it from scratch, provided operators are added in topological
// order (an operator's in-group producers are then already members).
// Its slices are reused from group to group, so pricing allocates
// nothing once they have grown to the largest graph and group seen.
type groupPricer struct {
	hw      *arch.HWConfig
	fine    bool // DataflowCROPHE
	uniform bool // Options.UniformAlloc

	// stamp[id] == gen marks node id as a member of the current group;
	// bumping gen empties the group.
	stamp []uint32
	gen   uint32
	loads []float64 // effLoad of each member, in group order
	alloc []int     // PE allocation of each member, in group order
	// allocated reports that cost placed the group in a fine-grained
	// pipeline, whose PE allocation is in alloc.
	allocated bool

	totalLoad float64 // modmul-equivalents
	classLoad [arch.NumOpClasses]float64
	tr        Traffic
	pipelined int
	resident  float64
}

// newGroup empties p and returns it, ready to price a group on hw under
// opt.
func (p *groupPricer) newGroup(hw *arch.HWConfig, opt Options) *groupPricer {
	p.hw = hw
	p.fine = opt.Dataflow == DataflowCROPHE
	p.uniform = opt.UniformAlloc
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(p.stamp)
		p.gen = 1
	}
	p.loads = p.loads[:0]
	p.totalLoad = 0
	p.classLoad = [arch.NumOpClasses]float64{}
	p.tr = Traffic{}
	p.pipelined = 0
	p.resident = 0
	return p
}

// add appends n to the group. Every in-group producer of n must have been
// added before it.
func (p *groupPricer) add(n *graph.Node) {
	hw := p.hw
	load := effLoad(n)
	p.loads = append(p.loads, load)
	p.totalLoad += load
	p.classLoad[opClassOf(n.Kind)] += load

	// Auxiliary (evk/plaintext/BConv-matrix) traffic is accounted at the
	// segment level (residency and sharing are cross-group decisions);
	// the group cost covers intermediates, compute and on-chip movement.
	wb := hw.WordBytes()
	transCapBytes := hw.TransposeMB * 1e6
	for _, e := range n.InEdges {
		bytes := e.Shape.Bytes(wb)
		switch e.Class {
		case graph.Auxiliary:
			// Counted in scheduleSegment (residency & sharing).
		case graph.Intermediate:
			if !e.From.Kind.IsCompute() {
				// Segment input: produced by the preceding segment, read
				// from the global buffer (the segment split is a search
				// artifact, not a spill).
				p.tr.SRAM += bytes
				continue
			}
			if id := e.From.ID; id >= len(p.stamp) || p.stamp[id] != p.gen {
				// Cross-group edge: accounted in the segment-level
				// boundary pass (live-range residency).
				continue
			}
			if p.fine && canPipeline(e, hw) {
				// Fine-grained forwarding over the NoC: only a granule
				// is ever buffered.
				p.tr.NoC += bytes
				p.pipelined++
				p.resident += perLimbBytes(e.Shape, wb)
			} else if !hw.Homogeneous {
				// Specialised baseline under MAD fusion: the fused pair
				// forwards through the dedicated inter-unit datapath,
				// buffering a tensor slice.
				p.tr.NoC += bytes
				p.resident += perLimbBytes(e.Shape, wb)
			} else if e.From.Kind == graph.OpTranspose || e.To.Kind == graph.OpTranspose {
				// Through the transpose unit when the working chunk fits;
				// else the global buffer.
				if perLimbBytes(e.Shape, wb) <= transCapBytes && transCapBytes > 0 {
					p.tr.Transpose += bytes * spillRoundTrip
				} else {
					p.tr.SRAM += bytes * spillRoundTrip
					p.resident += bytes
				}
			} else {
				// Materialise in the global buffer (orientation switch or
				// coarse-grained step within the group); tensors too
				// large for their buffer share spill to DRAM — the §VII-D
				// penalty of running MAD's per-operator mapping on the
				// homogeneous array.
				if bytes <= hw.SRAMCapacityMB*1e6*interSpillFrac {
					p.tr.SRAM += bytes * spillRoundTrip
					p.resident += bytes
				} else {
					p.tr.DRAM += bytes * spillRoundTrip
				}
			}
		}
	}
	// Chip outputs are written back to the global buffer for the next
	// segment.
	for _, e := range n.OutEdges {
		if e.Class == graph.Intermediate && !e.To.Kind.IsCompute() {
			p.tr.SRAM += e.Shape.Bytes(wb)
		}
	}

	if n.ID >= len(p.stamp) {
		p.stamp = append(p.stamp, make([]uint32, n.ID+1-len(p.stamp))...)
	}
	p.stamp[n.ID] = p.gen
}

// cost prices the current group with the analytical model, leaving the
// composition (Nodes, PEAlloc) to the caller. Every group is feasible:
// there is no capacity rule that rejects one.
func (p *groupPricer) cost() GroupSchedule {
	timeSec, computeSec := p.price()
	return GroupSchedule{
		TimeSec:       timeSec,
		Compute:       computeSec,
		Traffic:       p.tr,
		Pipelined:     p.pipelined,
		ResidentBytes: p.resident,
	}
}

// price returns the current group's time and the part of it bound by
// compute: the two numbers of cost the DP's hot loop needs, without
// building a GroupSchedule for every candidate.
func (p *groupPricer) price() (timeSec, computeSec float64) {
	hw := p.hw
	k := len(p.loads)
	freq := hw.FreqGHz * 1e9
	lanesTotal := float64(hw.TotalLanes())
	p.allocated = false
	switch {
	case !hw.Homogeneous:
		// Specialised baseline: each class limited to its FU share; MAD
		// fusion overlaps classes within the (small) group. A class with
		// no operator in the group has zero load and never sets the max.
		for c, load := range p.classLoad {
			share := hw.FUShare[arch.OpClass(c)]
			if share <= 0 {
				share = 0.05 // minimal fallback path
			}
			t := load / (lanesTotal * share * effSpecialized * freq)
			if t > computeSec {
				computeSec = t
			}
		}
	case p.fine && k > 1:
		// Fine-grained pipeline: PEs allocated proportional to load
		// (§IV-B); pipeline throughput set by the slowest stage after
		// integer allocation. Each operator's multi-dimensional
		// decomposition spreads over at most perOpPECap PEs, so small
		// groups cannot fill a large array — the utilisation gap CROPHE-p
		// closes by partitioning the chip into clusters.
		usable := k * perOpPECap
		if usable > hw.NumPEs {
			usable = hw.NumPEs
		}
		if cap(p.alloc) < k {
			p.alloc = make([]int, k, cap(p.loads))
		}
		p.alloc = p.alloc[:k]
		if p.uniform {
			for i := range p.alloc {
				p.alloc[i] = usable / k
				if p.alloc[i] < 1 {
					p.alloc[i] = 1
				}
			}
		} else {
			allocatePEs(p.alloc, p.loads, usable)
		}
		p.allocated = true
		for i, load := range p.loads {
			if load == 0 {
				continue
			}
			t := load / (float64(p.alloc[i]) * float64(hw.Lanes) * effPipelined * freq)
			if t > computeSec {
				computeSec = t
			}
		}
	default:
		// Solo operators on the homogeneous array execute sequentially
		// at reduced efficiency.
		computeSec = p.totalLoad / (lanesTotal * effSoloHomogeneous * freq)
	}
	tr := &p.tr
	return maxOf(
		computeSec,
		tr.DRAM/(hw.DRAMBandwidthTBs*1e12),
		tr.SRAM/(hw.SRAMBandwidthTBs*1e12),
		tr.NoC/nocBandwidth(hw),
		tr.Transpose/(hw.SRAMBandwidthTBs*1e12*0.5),
	), computeSec
}

// costGroup prices nodes, in topological order, as one group and
// materialises it with its PE allocation. The DP prices its candidates
// by extending a groupPricer and calls this only for the groups it
// chose; both give bit-identical costs.
func (p *groupPricer) costGroup(hw *arch.HWConfig, opt Options, nodes []*graph.Node) GroupSchedule {
	p.newGroup(hw, opt)
	for _, n := range nodes {
		p.add(n)
	}
	g := p.cost()
	g.Nodes = nodes
	if p.allocated {
		g.PEAlloc = slices.Clone(p.alloc)
	}
	return g
}

// canPipeline reports whether an intermediate edge supports fine-grained
// forwarding: both endpoints stream (matched top-level loops, §V-A).
// On the homogeneous CROPHE array, automorphisms run in the inter-lane
// shift networks while data moves [19] (Figure 6 shows Auto inside a
// spatial pipeline), so they do not break the stream there.
func canPipeline(e *graph.Edge, hw *arch.HWConfig) bool {
	breaks := func(k graph.OpKind) bool {
		if hw.Homogeneous && k == graph.OpAutomorph {
			return false
		}
		return k.BreaksOrientation()
	}
	return !breaks(e.From.Kind) && !breaks(e.To.Kind)
}

// perLimbBytes is the buffering requirement of one limb-chunk of a tensor
// (what the transpose unit must hold at a time).
func perLimbBytes(t graph.Tensor, wb float64) float64 {
	return float64(t.N) * wb
}

// effLoad is the effective PE load of an operator in modmul-equivalents.
// Four-step sub-NTTs that are too short to fill the lane butterflies run
// at reduced efficiency (§V-D: "N1 and N2 should not be too small;
// otherwise the decomposed small NTTs cannot fully utilize the multiple
// lanes in the PE").
func effLoad(n *graph.Node) float64 {
	load := float64(n.ModMuls()) + float64(n.MoveElems())*0.25
	if (n.Kind == graph.OpNTTCol || n.Kind == graph.OpNTTRow) && n.SubNTTLen > 0 && n.SubNTTLen < 32 {
		load *= 2
	}
	return load
}

// allocatePEs distributes pes PEs to group operators proportionally to
// their loads with a minimum of one each (§IV-B), writing operator i's
// share to alloc[i].
func allocatePEs(alloc []int, loads []float64, pes int) {
	var total float64
	for _, l := range loads {
		total += l
	}
	if total == 0 {
		for i := range alloc {
			alloc[i] = 1
		}
		return
	}
	remaining := pes
	for i := range loads {
		a := int(math.Floor(loads[i] / total * float64(pes)))
		if a < 1 {
			a = 1
		}
		alloc[i] = a
		remaining -= a
	}
	// Hand out leftovers (or reclaim overdraft) to the heaviest stages.
	for remaining != 0 {
		idx, bestRatio := -1, -1.0
		for i := range loads {
			var ratio float64
			if remaining > 0 {
				ratio = loads[i] / float64(alloc[i])
				if ratio > bestRatio {
					bestRatio, idx = ratio, i
				}
			} else if alloc[i] > 1 {
				ratio = float64(alloc[i]) / (loads[i] + 1)
				if ratio > bestRatio {
					bestRatio, idx = ratio, i
				}
			}
		}
		if idx < 0 {
			break
		}
		if remaining > 0 {
			alloc[idx]++
			remaining--
		} else {
			alloc[idx]--
			remaining++
		}
	}
}

// opClassOf maps an operator kind to the baseline functional-unit class.
func opClassOf(k graph.OpKind) arch.OpClass {
	switch k {
	case graph.OpNTT, graph.OpINTT, graph.OpNTTCol, graph.OpNTTRow:
		return arch.ClassNTT
	case graph.OpBConv, graph.OpInP:
		return arch.ClassBConv
	case graph.OpAutomorph, graph.OpTranspose:
		return arch.ClassAutomorph
	default:
		return arch.ClassEW
	}
}

// nocBandwidth returns the effective aggregate on-chip forwarding
// bandwidth in bytes/s. Baseline designs without a mesh use their local
// buffer / register-file bandwidth (the second SRAM term of Table I); mesh
// designs are bounded by both the aggregate link capacity and the lane
// register-file bandwidth.
func nocBandwidth(hw *arch.HWConfig) float64 {
	local := hw.LocalBWTBs * 1e12
	if local <= 0 {
		local = hw.SRAMBandwidthTBs * 1e12
	}
	if hw.NoCLinkGBs <= 0 {
		return local
	}
	links := float64(hw.NumPEs) // effective concurrently-usable links
	if links < 1 {
		links = 1
	}
	mesh := hw.NoCLinkGBs * 1e9 * links / 2
	if mesh < local {
		return mesh
	}
	return local
}

func maxOf(vs ...float64) float64 {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// String renders a one-line summary.
func (s *Schedule) String() string {
	return fmt.Sprintf("%s on %s [%s, groups≤%d, clusters=%d]: %.3f ms (DRAM %.1f MB, SRAM %.1f MB)",
		s.Workload, s.HW, s.Opt.Dataflow, s.Opt.MaxGroupSize, s.Opt.Clusters,
		s.TimeSec*1e3, s.Traffic.DRAM/1e6, s.Traffic.SRAM/1e6)
}

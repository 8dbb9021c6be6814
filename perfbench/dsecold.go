package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crophe/internal/baseline"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// dse-cold: closed loop, one caller. Each op is one Figure 9 cell — the
// four paper designs of one (baseline pairing, workload) pair, each a
// cold sched.Design.Evaluate. Nothing goes through the process schedule
// memo: users regenerating Figures 9–11 pay the cold cost on every point.

// dseSecondsPerPass is the nominal host time of one pass over the 16
// cells, which turns --seconds into a fixed pass count (6 at 20 s: 96
// ops, whose p50 and p89 ranks fall inside runs of one cell's copies
// rather than between two cells).
const dseSecondsPerPass = 3.4

type dseCell struct {
	key     string
	pairing baseline.Pairing
	wl      string
}

type dseCold struct {
	cells  []dseCell
	passes int
	rng    *rand.Rand
	first  map[int]uint64 // the first digest of each cell's four schedules
}

// figure9Cells lists the 16 (pairing, workload) cells of Figure 9.
func figure9Cells() []dseCell {
	var cells []dseCell
	for _, p := range baseline.Pairings() {
		for _, wl := range baseline.WorkloadNames() {
			cells = append(cells, dseCell{key: p.Baseline.Name + "/" + wl, pairing: p, wl: wl})
		}
	}
	return cells
}

func setupDSECold(seed int64, seconds int) (instance, error) {
	b := &dseCold{
		cells:  figure9Cells(),
		passes: max(2, int(math.Round(float64(seconds)/dseSecondsPerPass))),
		rng:    rand.New(rand.NewSource(seed)),
		first:  map[int]uint64{},
	}
	// Warm the lazy process state (heap, code pages) with one cold cell
	// that is not timed; it shares no cache with the timed ops.
	if err := b.evaluate(1, nil, -1, -1)(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *dseCold) sloLimit() time.Duration { return time.Second }
func (b *dseCold) close() error            { return nil }

func (b *dseCold) digest() string {
	items := map[string]uint64{}
	for i, d := range b.first {
		items[b.cells[i].key] = d
	}
	return combine(items)
}

func (b *dseCold) run(tr *tracer) (*phase, error) {
	var total, traced sched.SearchStats
	ph := closedLoop(b.rng, b.passes, len(b.cells), tr, func(item int, tr *tracer, root, op int) func() error {
		s0 := sched.Stats()
		check := b.evaluate(item, tr, root, op)
		d := statsDelta(s0, sched.Stats())
		addStats(&total, d)
		if tr != nil {
			addStats(&traced, d)
		}
		return check
	})
	if tr != nil {
		lt := tr.attribute("op")
		ph.layers["workload.build_ms"] = lt.perOp("workload.build")
		ph.layers["graph.decompose_ms"] = lt.perOp("graph.decompose")
		ph.layers["sched.search_ms"] = lt.perOp("sched.search")
		if traced.Candidates > 0 {
			ph.layers["sched.ns_per_candidate"] = float64(lt.self["sched.search"]) / float64(traced.Candidates)
		}
		ph.layers["sched.candidates_per_op"] = float64(total.Candidates) / float64(len(ph.ops))
		if n := total.CacheHits + total.CacheMisses; n > 0 {
			ph.layers["sched.seg_cache_hit_frac"] = float64(total.CacheHits) / float64(n)
		}
		if total.Candidates > 0 {
			ph.layers["sched.pruned_frac"] = float64(total.Pruned) / float64(total.Candidates)
		}
	}
	return ph, nil
}

// evaluate schedules the four designs of one cell and returns the check
// of the result.
func (b *dseCold) evaluate(item int, tr *tracer, root, op int) func() error {
	c := b.cells[item]
	factory := c.pairing.WorkloadFactories()[c.wl]
	designs := c.pairing.Designs()
	out := make([]*sched.Schedule, len(designs))
	for i, d := range designs {
		if tr == nil {
			out[i] = d.Evaluate(factory)
		} else {
			out[i] = evaluateTraced(d, factory, tr, root, op)
		}
	}
	return func() error {
		dg := newDigest()
		for i, s := range out {
			if err := checkSchedule(s); err != nil {
				return fmt.Errorf("%s %s: %w", c.key, designs[i].Name, err)
			}
			digestSchedule(dg, s)
		}
		sum := dg.sum()
		if op < 0 {
			return nil // the warm-up is not part of the run's outputs
		}
		if prev, ok := b.first[item]; ok && prev != sum {
			return fmt.Errorf("%s: schedules differ from the cell's first evaluation in this run", c.key)
		}
		b.first[item] = sum
		return nil
	}
}

// evaluateTraced is sched.Design.Evaluate with a span around each call
// into a layer. It must return the same schedule as Evaluate: the traced
// and untraced passes of a run are checked against each other.
func evaluateTraced(d sched.Design, factory sched.WorkloadFactory, tr *tracer, root, op int) *sched.Schedule {
	s := sched.New(d.HW, designOptions(d))
	build := func(m workload.RotMode, r int) (w *workload.Workload) {
		tr.call("workload.build", root, op, func() { w = factory(m, r) })
		return w
	}
	type cand struct {
		mode workload.RotMode
		r    int
	}
	cands := []cand{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}}
	if d.HybridRot {
		for _, r := range []int{2, 4, 8} { // the r_Hyb sweep of Evaluate
			cands = append(cands, cand{workload.RotHybrid, r})
		}
	}
	var best *sched.Schedule
	for _, c := range cands {
		w := build(c.mode, c.r)
		if d.NTTDec {
			tr.call("graph.decompose", root, op, func() { w = w.DecomposeNTTs() })
		}
		var res *sched.Schedule
		tr.call("sched.search", root, op, func() { res = s.Run(w) })
		if best == nil || res.TimeSec < best.TimeSec {
			best = res
		}
	}
	best.Workload = build(workload.RotMinKS, 0).Name
	return best
}

// checkSchedule is the model-independent sanity check of a full search:
// not cut short, a finite positive time, utilisations in [0, 1].
func checkSchedule(s *sched.Schedule) error {
	if s.Partial {
		return fmt.Errorf("full search returned a partial schedule")
	}
	if !finite(s.TimeSec) || s.TimeSec <= 0 {
		return fmt.Errorf("schedule time %v is not finite and positive", s.TimeSec)
	}
	for _, u := range []float64{s.Util.PE, s.Util.NoC, s.Util.SRAM, s.Util.DRAM} {
		if !(u >= 0 && u <= 1) {
			return fmt.Errorf("utilisation %v outside [0, 1]", u)
		}
	}
	return nil
}

// digestSchedule hashes every number a schedule reports, down to each
// group's composition.
func digestSchedule(d *digest, s *sched.Schedule) {
	d.s(s.Workload)
	d.s(s.HW)
	d.f(s.TimeSec, s.Traffic.DRAM, s.Traffic.SRAM, s.Traffic.NoC, s.Traffic.Transpose)
	d.f(s.Util.PE, s.Util.NoC, s.Util.SRAM, s.Util.DRAM)
	for _, seg := range s.Segments {
		d.s(seg.Name)
		d.i(seg.Count, len(seg.Groups))
		d.f(seg.TimeSec, seg.AuxDRAM, seg.MatDRAM)
		for _, g := range seg.Groups {
			d.i(len(g.Nodes), g.Pipelined, g.AuxShared)
			d.f(g.TimeSec, g.Compute, g.ResidentBytes)
			for _, n := range g.Nodes {
				d.i(n.ID)
				d.s(n.Name)
			}
		}
	}
}

func statsDelta(a, b sched.SearchStats) sched.SearchStats {
	return sched.SearchStats{
		Candidates:  b.Candidates - a.Candidates,
		Pruned:      b.Pruned - a.Pruned,
		CacheHits:   b.CacheHits - a.CacheHits,
		CacheMisses: b.CacheMisses - a.CacheMisses,
	}
}

func addStats(t *sched.SearchStats, d sched.SearchStats) {
	t.Candidates += d.Candidates
	t.Pruned += d.Pruned
	t.CacheHits += d.CacheHits
	t.CacheMisses += d.CacheMisses
}

// designOptions are the scheduler options Design.Evaluate runs a design
// under.
func designOptions(d sched.Design) sched.Options {
	opt := sched.DefaultOptions(d.Dataflow)
	if d.Clusters > 1 {
		opt.Clusters = d.Clusters
	}
	return opt
}

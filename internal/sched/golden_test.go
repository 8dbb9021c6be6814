package sched_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/baseline"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// goldenSchedulesHash pins every bit of the paper's design-point
// schedules. The determinism tests compare a run against another run of
// the same code, so a change that moves one bit everywhere would pass
// them; this constant must not move with a pure performance change. If
// a model change moves it on purpose, recompute it and say why.
const goldenSchedulesHash = 0x05ad87739cb32878

func TestPaperDesignSchedulesGolden(t *testing.T) {
	h := fnv.New64a()
	// Figure 9: every (pairing, workload) cell, four paper designs each.
	for _, p := range baseline.Pairings() {
		factories := p.WorkloadFactories()
		for _, wl := range baseline.WorkloadNames() {
			for _, d := range p.Designs() {
				hashSchedule(h, d.Evaluate(factories[wl]))
			}
		}
	}
	// Figure 11: the ablation ladder at the small SRAM capacities.
	for _, v := range []struct {
		hw     *arch.HWConfig
		params arch.ParamSet
		mb     float64
	}{
		{arch.CROPHE64, arch.ParamsARK, 128},
		{arch.CROPHE36, arch.ParamsSHARP, 45},
	} {
		params := v.params
		factory := func(m workload.RotMode, r int) *workload.Workload {
			return workload.Bootstrapping(params, m, r)
		}
		for _, d := range sched.AblationDesigns(v.hw.WithSRAM(v.mb)) {
			hashSchedule(h, d.Evaluate(factory))
		}
	}
	// One degraded point: the composition searched on the healthy
	// machine, re-priced on a derated view (see Scheduler.WithPricing).
	derated := arch.CROPHE64.Clone()
	derated.NumPEs -= 8
	derated.DRAMBandwidthTBs *= 0.8
	derated.SRAMCapacityMB *= 0.75
	w := workload.Bootstrapping(arch.ParamsARK, workload.RotHybrid, 4).DecomposeNTTs()
	hashSchedule(h, sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).WithPricing(derated).Run(w))

	if got := h.Sum64(); got != goldenSchedulesHash {
		t.Fatalf("paper design schedules hash %#x, want %#x", got, uint64(goldenSchedulesHash))
	}
}

// hashSchedule feeds every reported number of a schedule, down to each
// group's composition (node IDs and names) and PE allocation, into h.
func hashSchedule(h hash.Hash64, s *sched.Schedule) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	i := func(v int) { u(uint64(int64(v))) }
	f := func(v float64) { u(math.Float64bits(v)) }
	str := func(v string) {
		i(len(v))
		h.Write([]byte(v))
	}
	str(s.Workload)
	str(s.HW)
	f(s.TimeSec)
	hashTraffic(f, s.Traffic)
	f(s.Util.PE)
	f(s.Util.NoC)
	f(s.Util.SRAM)
	f(s.Util.DRAM)
	i(len(s.Segments))
	for _, seg := range s.Segments {
		str(seg.Name)
		i(seg.Count)
		f(seg.TimeSec)
		f(seg.AuxDRAM)
		f(seg.MatDRAM)
		hashTraffic(f, seg.Traffic)
		i(len(seg.Groups))
		for _, g := range seg.Groups {
			i(len(g.Nodes))
			for _, n := range g.Nodes {
				i(n.ID)
				str(n.Name)
			}
			i(g.Pipelined)
			f(g.TimeSec)
			hashTraffic(f, g.Traffic)
			f(g.Compute)
			f(g.ResidentBytes)
			pairs := peAllocByID(g)
			i(len(pairs))
			for _, p := range pairs {
				i(p[0])
				i(p[1])
			}
		}
	}
}

// peAllocByID returns a group's (node ID, PEs) allocation pairs sorted by
// node ID, the order the golden hash has always fed them in.
func peAllocByID(g sched.GroupSchedule) [][2]int {
	pairs := make([][2]int, len(g.PEAlloc))
	for k, a := range g.PEAlloc {
		pairs[k] = [2]int{g.Nodes[k].ID, a}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	return pairs
}

func hashTraffic(f func(float64), t sched.Traffic) {
	f(t.DRAM)
	f(t.SRAM)
	f(t.NoC)
	f(t.Transpose)
}

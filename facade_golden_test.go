package crophe

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"
)

// facadeSchedulesHash pins every bit the façade's schedule and simulate
// entry points report for the serving layer's hardware × workload ×
// dataflow grid. It must not move with a refactor of how a design
// becomes a scheduler run; if a model change moves it on purpose,
// recompute it and say why.
const facadeSchedulesHash = 0x360a8909f0d38587

func TestFacadeSchedulesGolden(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseFaultSpec("rows:1,links:2,hbm:0.8,stalls:4@200,flip:0.001")
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, hwName := range []string{"crophe64", "crophe36"} {
		hw, ok := LookupHW(hwName)
		if !ok {
			t.Fatalf("hardware %q", hwName)
		}
		m, err := NewFaultMachine(hw, spec, 7)
		if err != nil {
			t.Fatalf("%s fault machine: %v", hwName, err)
		}
		for _, wl := range []string{"bootstrapping", "helr1024", "resnet-20", "resnet-110"} {
			w, ok := LookupWorkload(wl, DefaultParamsFor(hw), RotHoisted)
			if !ok {
				t.Fatalf("workload %q", wl)
			}
			for _, d := range []Design{CROPHEDesign(hw), MADDesign(hw)} {
				for _, deadline := range []time.Duration{0, time.Millisecond} {
					s, err := ScheduleWorkload(ctx, d, w, deadline)
					if err != nil {
						t.Fatalf("%s/%s/%s schedule: %v", hwName, wl, d.Name, err)
					}
					hashFacadeSchedule(h, s)
				}
				res, s, err := SimulateWorkloadContext(ctx, d, w, 0, WithTelemetry(NewTelemetry()))
				if err != nil {
					t.Fatalf("%s/%s/%s simulate: %v", hwName, wl, d.Name, err)
				}
				hashFacadeSchedule(h, s)
				hashSimResult(h, res)
			}
			res, err := SimulateWorkload(hw, w, WithTelemetry(NewTelemetry()))
			if err != nil {
				t.Fatalf("%s/%s simulate workload: %v", hwName, wl, err)
			}
			hashSimResult(h, res)
			res, s, err := SimulateDegraded(ctx, m, w)
			if err != nil {
				t.Fatalf("%s/%s degraded: %v", hwName, wl, err)
			}
			hashFacadeSchedule(h, s)
			hashSimResult(h, res)
		}
	}
	if got := h.Sum64(); got != facadeSchedulesHash {
		t.Fatalf("façade schedules hash %#x, want %#x", got, uint64(facadeSchedulesHash))
	}
}

// goldenHasher writes fixed-width encodings of scalars into a hash.
type goldenHasher struct{ h hash.Hash64 }

func (g goldenHasher) u(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	g.h.Write(buf[:])
}
func (g goldenHasher) i(v int)     { g.u(uint64(int64(v))) }
func (g goldenHasher) f(v float64) { g.u(math.Float64bits(v)) }
func (g goldenHasher) b(v bool) {
	if v {
		g.i(1)
	} else {
		g.i(0)
	}
}
func (g goldenHasher) str(v string) { g.i(len(v)); g.h.Write([]byte(v)) }
func (g goldenHasher) fs(v ...float64) {
	for _, x := range v {
		g.f(x)
	}
}

// hashFacadeSchedule feeds every reported number of a schedule, down to
// each group's composition and PE allocation, into h.
func hashFacadeSchedule(h hash.Hash64, s *Schedule) {
	g := goldenHasher{h}
	g.str(s.Workload)
	g.str(s.HW)
	g.b(s.Partial)
	g.i(int(s.Opt.Dataflow))
	g.i(s.Opt.MaxGroupSize)
	g.i(s.Opt.Clusters)
	g.b(s.Opt.UniformAlloc)
	g.i(s.Opt.SearchBudget)
	g.fs(s.TimeSec, s.Traffic.DRAM, s.Traffic.SRAM, s.Traffic.NoC, s.Traffic.Transpose)
	g.fs(s.Util.PE, s.Util.NoC, s.Util.SRAM, s.Util.DRAM)
	g.i(len(s.Segments))
	for _, seg := range s.Segments {
		g.str(seg.Name)
		g.i(seg.Count)
		g.fs(seg.TimeSec, seg.AuxDRAM, seg.MatDRAM)
		g.fs(seg.Traffic.DRAM, seg.Traffic.SRAM, seg.Traffic.NoC, seg.Traffic.Transpose)
		g.i(len(seg.Groups))
		for _, grp := range seg.Groups {
			g.i(len(grp.Nodes))
			for _, n := range grp.Nodes {
				g.i(n.ID)
				g.str(n.Name)
			}
			g.i(grp.Pipelined)
			g.fs(grp.TimeSec, grp.Compute, grp.ResidentBytes)
			g.fs(grp.Traffic.DRAM, grp.Traffic.SRAM, grp.Traffic.NoC, grp.Traffic.Transpose)
			ids := make([]int, 0, len(grp.PEAlloc))
			for id := range grp.PEAlloc {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			g.i(len(ids))
			for _, id := range ids {
				g.i(id)
				g.i(grp.PEAlloc[id])
			}
		}
	}
}

// hashSimResult feeds every field of a simulation result, including the
// telemetry counters of an attached collector, into h.
func hashSimResult(h hash.Hash64, r *SimResult) {
	g := goldenHasher{h}
	g.str(r.Workload)
	g.str(r.HW)
	g.fs(r.Cycles, r.TimeSec, r.EnergyJ)
	g.fs(r.Util.PE, r.Util.NoC, r.Util.SRAM, r.Util.DRAM)
	g.fs(r.Traffic.DRAM, r.Traffic.SRAM, r.Traffic.NoC, r.Traffic.Transpose)
	g.i(len(r.PerSegment))
	for _, s := range r.PerSegment {
		g.str(s.Name)
		g.f(s.Cycles)
		g.i(s.Count)
	}
	g.i(len(r.Counters))
	for _, c := range r.Counters {
		g.str(c.Name)
		g.f(c.Value)
	}
	g.b(r.Integrity != nil)
	if r.Integrity != nil {
		in := r.Integrity
		g.fs(in.Checks, in.Detected, in.Recomputed, in.Escalated, in.RecomputeCycles, in.ScrubCycles)
	}
}

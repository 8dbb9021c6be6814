package sched

import (
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/workload"
)

// Structural invariants every schedule must satisfy, checked over a
// spread of workloads, policies and hardware configurations.

func allScheduleCases() []struct {
	name string
	hw   *arch.HWConfig
	opt  Options
	w    *workload.Workload
} {
	boot := workload.Bootstrapping(testParams, workload.RotHoisted, 0)
	bootDec := boot.DecomposeNTTs()
	hybrid := workload.Bootstrapping(testParams, workload.RotHybrid, 4)
	resnet := workload.ResNet(testParams, 20, workload.RotMinKS, 0)
	return []struct {
		name string
		hw   *arch.HWConfig
		opt  Options
		w    *workload.Workload
	}{
		{"crophe64/boot/crophe", arch.CROPHE64, DefaultOptions(DataflowCROPHE), boot},
		{"crophe64/boot/mad", arch.CROPHE64, DefaultOptions(DataflowMAD), boot},
		{"crophe36/bootdec/crophe", arch.CROPHE36, DefaultOptions(DataflowCROPHE), bootDec},
		{"ark/boot/mad", arch.ARK, DefaultOptions(DataflowMAD), boot},
		{"sharp/hybrid/mad", arch.SHARP, DefaultOptions(DataflowMAD), hybrid},
		{"crophe64/resnet/crophe", arch.CROPHE64, DefaultOptions(DataflowCROPHE), resnet},
	}
}

func TestInvariantEveryComputeNodeScheduledOnce(t *testing.T) {
	for _, tc := range allScheduleCases() {
		res := New(tc.hw, tc.opt).Run(tc.w)
		for si, seg := range res.Segments {
			want := len(tc.w.Segments[si].G.ComputeNodes())
			seen := map[int]int{}
			total := 0
			for _, g := range seg.Groups {
				for _, n := range g.Nodes {
					seen[n.ID]++
					total++
				}
			}
			if total != want {
				t.Fatalf("%s/%s: scheduled %d nodes, graph has %d",
					tc.name, seg.Name, total, want)
			}
			for id, c := range seen {
				if c != 1 {
					t.Fatalf("%s/%s: node %d scheduled %d times", tc.name, seg.Name, id, c)
				}
			}
		}
	}
}

func TestInvariantGroupSizeBound(t *testing.T) {
	for _, tc := range allScheduleCases() {
		bound := tc.opt.MaxGroupSize
		if tc.opt.Dataflow == DataflowMAD {
			bound = 2
		}
		res := New(tc.hw, tc.opt).Run(tc.w)
		for _, seg := range res.Segments {
			for _, g := range seg.Groups {
				if len(g.Nodes) > bound {
					t.Fatalf("%s: group of %d exceeds bound %d", tc.name, len(g.Nodes), bound)
				}
			}
		}
	}
}

func TestInvariantPEAllocations(t *testing.T) {
	for _, tc := range allScheduleCases() {
		res := New(tc.hw, tc.opt).Run(tc.w)
		for _, seg := range res.Segments {
			for _, g := range seg.Groups {
				if g.PEAlloc != nil && len(g.PEAlloc) != len(g.Nodes) {
					t.Fatalf("%s: %d PE allocations for %d operators", tc.name, len(g.PEAlloc), len(g.Nodes))
				}
				var sum int
				for _, a := range g.PEAlloc {
					if a < 1 {
						t.Fatalf("%s: zero PE allocation", tc.name)
					}
					sum += a
				}
				if sum > tc.hw.NumPEs {
					t.Fatalf("%s: group allocates %d PEs of %d", tc.name, sum, tc.hw.NumPEs)
				}
			}
		}
	}
}

func TestInvariantNonNegativeTrafficAndTime(t *testing.T) {
	for _, tc := range allScheduleCases() {
		res := New(tc.hw, tc.opt).Run(tc.w)
		if res.TimeSec <= 0 {
			t.Fatalf("%s: non-positive time", tc.name)
		}
		for _, v := range []float64{res.Traffic.DRAM, res.Traffic.SRAM, res.Traffic.NoC, res.Traffic.Transpose} {
			if v < 0 {
				t.Fatalf("%s: negative traffic", tc.name)
			}
		}
		for _, seg := range res.Segments {
			if seg.TimeSec < 0 || seg.AuxDRAM < 0 || seg.MatDRAM < 0 {
				t.Fatalf("%s/%s: negative segment metrics", tc.name, seg.Name)
			}
		}
	}
}

func TestInvariantDeterminism(t *testing.T) {
	tc := allScheduleCases()[0]
	r1 := New(tc.hw, tc.opt).Run(tc.w)
	r2 := New(tc.hw, tc.opt).Run(tc.w)
	if r1.TimeSec != r2.TimeSec {
		t.Fatalf("schedule not deterministic: %.17g vs %.17g", r1.TimeSec, r2.TimeSec)
	}
	if r1.Traffic != r2.Traffic {
		t.Fatalf("traffic not deterministic")
	}
}

func TestInvariantMemoizationConsistent(t *testing.T) {
	// Scheduling the same workload twice through one Scheduler (memoised)
	// must equal a fresh Scheduler's result.
	tc := allScheduleCases()[2]
	s := New(tc.hw, tc.opt)
	first := s.Run(tc.w)
	second := s.Run(tc.w) // served from the segment memo
	if first.TimeSec != second.TimeSec || first.Traffic != second.Traffic {
		t.Fatal("memoised result differs")
	}
}

func TestInvariantAffinityOrderIsTopological(t *testing.T) {
	w := workload.Bootstrapping(testParams, workload.RotHybrid, 4)
	for _, seg := range w.Segments {
		order, err := new(orderScratch).auxAffinityOrder(seg.G)
		if err != nil {
			t.Fatalf("%s: %v", seg.Name, err)
		}
		pos := map[*graph.Node]int{}
		for i, n := range order {
			pos[n] = i
		}
		if len(order) != len(seg.G.ComputeNodes()) {
			t.Fatalf("%s: order has %d nodes, graph %d",
				seg.Name, len(order), len(seg.G.ComputeNodes()))
		}
		for _, n := range seg.G.Nodes {
			if !n.Kind.IsCompute() {
				continue
			}
			for _, e := range n.OutEdges {
				if !e.To.Kind.IsCompute() || e.Class != graph.Intermediate {
					continue
				}
				if pos[e.From] >= pos[e.To] {
					t.Fatalf("%s: affinity order violates dependency %s -> %s",
						seg.Name, e.From.Name, e.To.Name)
				}
			}
		}
	}
}

package sim_test

import (
	"slices"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/fault"
	"crophe/internal/sched"
	"crophe/internal/sim"
)

// TestSimulateAllocsBoundedBySegments checks that a repeat simulation
// allocates per segment, not per group: simulating a schedule whose
// every segment holds its groups twice over allocates at most one more
// object per segment than the schedule itself, healthy and on a faulted
// machine.
func TestSimulateAllocsBoundedBySegments(t *testing.T) {
	w := resilienceWorkload().DecomposeNTTs()
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	doubled := *s
	doubled.Segments = slices.Clone(s.Segments)
	groups := 0
	for i := range doubled.Segments {
		g := doubled.Segments[i].Groups
		groups += len(g)
		doubled.Segments[i].Groups = append(slices.Clone(g), g...)
	}
	if groups < 4*len(s.Segments) {
		t.Fatalf("%d groups in %d segments: too few groups to tell them from segments", groups, len(s.Segments))
	}
	spec, err := fault.ParseSpec("rows:2,links:2,stalls:2@150")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Generate(arch.CROPHE64, spec, 13)
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.NewMachine(arch.CROPHE64, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		e    *sim.Engine
	}{
		{"healthy", sim.New(arch.CROPHE64)},
		{"faulted", sim.New(arch.CROPHE64, sim.WithFaults(m))},
	} {
		allocs := func(s *sched.Schedule) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := tc.e.SimulateSchedule(w, s); err != nil {
					t.Fatal(err)
				}
			})
		}
		base, twice := allocs(s), allocs(&doubled)
		t.Logf("%s: %d segments, %d groups: %.0f allocs, %.0f with every group twice", tc.name, len(s.Segments), groups, base, twice)
		if twice-base > float64(len(s.Segments)) {
			t.Errorf("%s: %d more groups cost %.0f more allocations; want at most one per segment (%d)",
				tc.name, groups, twice-base, len(s.Segments))
		}
	}
}

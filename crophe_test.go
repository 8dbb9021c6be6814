package crophe

import (
	"strings"
	"testing"

	"crophe/internal/graph"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

func TestFacadeCKKSRoundTrip(t *testing.T) {
	params, err := NewTestCKKSParameters(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if params.Slots() != 32 {
		t.Fatalf("slots %d", params.Slots())
	}
}

func TestFacadeDesignsEvaluate(t *testing.T) {
	cro := CROPHEDesign(HWCROPHE64)
	mad := MADDesign(HWCROPHE64)
	if cro.Name != "CROPHE-64" || mad.Name != "CROPHE-64+MAD" {
		t.Fatal("design names")
	}
	factory := BootstrappingWorkload(ParamsARK)
	rc := cro.Evaluate(factory)
	rm := mad.Evaluate(factory)
	if rc.TimeSec >= rm.TimeSec {
		t.Fatalf("facade: CROPHE %.3g not faster than MAD %.3g", rc.TimeSec, rm.TimeSec)
	}
}

func TestFacadeWorkloadFactories(t *testing.T) {
	for name, f := range map[string]WorkloadFactory{
		"boot":   BootstrappingWorkload(ParamsSHARP),
		"helr":   HELRWorkload(ParamsSHARP),
		"resnet": ResNetWorkload(ParamsSHARP, 20),
	} {
		w := f(workload.RotHoisted, 0)
		if w.TotalOps() == 0 {
			t.Errorf("%s: empty workload", name)
		}
	}
}

// TestResNetWorkloadSharesSegments checks that one ResNetWorkload
// factory hands every call the same graph for a rotation-invariant
// segment, so Design.Evaluate searches it once, and that two factories
// share nothing.
func TestResNetWorkloadSharesSegments(t *testing.T) {
	relu := func(w *Workload) *graph.Graph {
		for _, s := range w.Segments {
			if s.Name == "relu" {
				return s.G
			}
		}
		t.Fatal("no relu segment")
		return nil
	}
	f := ResNetWorkload(ParamsSHARP, 20)
	a, b := relu(f(RotMinKS, 0)), relu(f(workload.RotHybrid, 4))
	if a != b {
		t.Error("two calls of one ResNetWorkload factory built relu twice")
	}
	if relu(ResNetWorkload(ParamsSHARP, 20)(RotMinKS, 0)) == a {
		t.Error("two ResNetWorkload factories share a segment graph")
	}
}

// sameGraph reports whether two graphs have the same nodes (ID, kind,
// name, shape, attributes) with the same in-edges (source, class, shape,
// aux ID), in the same order.
func sameGraph(a, b *graph.Graph) bool {
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.ID != m.ID || n.Kind != m.Kind || n.Name != m.Name || n.Out != m.Out ||
			n.SubNTTLen != m.SubNTTLen || n.BConvWidth != m.BConvWidth || len(n.InEdges) != len(m.InEdges) {
			return false
		}
		for j, e := range n.InEdges {
			f := m.InEdges[j]
			if e.From.ID != f.From.ID || e.Class != f.Class || e.Shape != f.Shape || e.AuxID != f.AuxID {
				return false
			}
		}
	}
	return true
}

func TestFacadeSimulate(t *testing.T) {
	factory := BootstrappingWorkload(ParamsARK)
	w := factory(workload.RotHoisted, 0)
	s := sched.New(HWCROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	r, err := Simulate(HWCROPHE64, w, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeSec <= 0 {
		t.Fatal("simulation time")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) != 9 {
		t.Fatalf("experiment count %d", len(ids))
	}
	out, err := RunExperiment("table3", true)
	if err != nil || !strings.Contains(out, "TABLE III") {
		t.Fatalf("table3: %v", err)
	}
	if _, err := RunExperiment("bogus", true); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// TestNameCatalogue pins the shared hardware, workload and dataflow name
// tables: every name a command-line tool or the serving layer has
// accepted resolves to the same configuration, workload or policy, every
// workload's own Name and every policy's String resolve to themselves,
// and unknown spellings are rejected.
func TestNameCatalogue(t *testing.T) {
	for name, want := range map[string]*HWConfig{
		"crophe64": HWCROPHE64, "crophe36": HWCROPHE36,
		"bts": HWBTS, "ark": HWARK, "sharp": HWSHARP, "cl": HWCLPlus, "cl+": HWCLPlus,
	} {
		if hw, ok := LookupHW(name); !ok || hw != want {
			t.Errorf("LookupHW(%q) = %v, %v; want %s", name, hw, ok, want.Name)
		}
	}
	if _, ok := LookupHW("CROPHE-64"); ok {
		t.Error("LookupHW accepts a display name")
	}

	p := ParamsARK
	for name, want := range map[string]*Workload{
		"bootstrapping": workload.Bootstrapping(p, RotHoisted, 0),
		"boot":          workload.Bootstrapping(p, RotHoisted, 0),
		"helr1024":      workload.HELR(p, RotHoisted, 0),
		"helr":          workload.HELR(p, RotHoisted, 0),
		"resnet-20":     workload.ResNet(p, 20, RotHoisted, 0),
		"resnet20":      workload.ResNet(p, 20, RotHoisted, 0),
		"resnet-110":    workload.ResNet(p, 110, RotHoisted, 0),
		"resnet110":     workload.ResNet(p, 110, RotHoisted, 0),
	} {
		if own, ok := LookupWorkload(want.Name, p, RotHoisted); !ok || own.Name != want.Name {
			t.Errorf("workload %q does not resolve to itself", want.Name)
		}
		w, ok := LookupWorkload(name, p, RotHoisted)
		if !ok {
			t.Errorf("LookupWorkload(%q) failed", name)
			continue
		}
		if w.Name != want.Name || len(w.Segments) != len(want.Segments) {
			t.Errorf("LookupWorkload(%q) = %s with %d segments; want %s with %d",
				name, w.Name, len(w.Segments), want.Name, len(want.Segments))
			continue
		}
		for i := range w.Segments {
			if w.Segments[i].Count != want.Segments[i].Count || !sameGraph(w.Segments[i].G, want.Segments[i].G) {
				t.Errorf("LookupWorkload(%q) segment %s differs", name, w.Segments[i].Name)
			}
		}
	}
	if _, ok := LookupWorkload("doom", p, RotHoisted); ok {
		t.Error("LookupWorkload accepts an unknown name")
	}

	for _, name := range workload.Names() {
		w, ok := LookupWorkload(name, p, RotMinKS)
		if !ok || w.Name != name {
			t.Errorf("workload %q does not resolve to itself (got %v)", name, w)
		}
	}

	for name, want := range map[string]sched.Dataflow{
		"": sched.DataflowCROPHE, "crophe": sched.DataflowCROPHE, "mad": sched.DataflowMAD,
	} {
		if df, ok := sched.LookupDataflow(name); !ok || df != want {
			t.Errorf("LookupDataflow(%q) = %v, %v; want %v", name, df, ok, want)
		}
		if df, ok := sched.LookupDataflow(want.String()); !ok || df != want {
			t.Errorf("dataflow %v does not resolve to itself", want)
		}
	}
	for _, name := range []string{"MAD", "CROPHE", "foo"} {
		if _, ok := sched.LookupDataflow(name); ok {
			t.Errorf("LookupDataflow accepts %q", name)
		}
	}
}

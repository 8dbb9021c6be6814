package crophe

import (
	"strings"
	"testing"

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

// TestNameCatalogue pins the shared hardware and workload name tables:
// every name a command-line tool or the serving layer has accepted
// resolves to the same configuration or workload, and every workload's
// own Name resolves to that workload.
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
			if w.Segments[i].Count != want.Segments[i].Count ||
				w.Segments[i].G.Fingerprint() != want.Segments[i].G.Fingerprint() {
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
}

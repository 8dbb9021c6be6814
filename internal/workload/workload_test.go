package workload

import (
	"strings"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

var testParams = arch.ParamSet{Name: "test", LogN: 12, L: 7, LBoot: 5, DNum: 4, Alpha: 2}

func TestKeySwitchStructure(t *testing.T) {
	b := NewBuilder(testParams)
	level := 5 // limbs = 6, beta = 3
	in := b.Input("x", level)
	out := b.KeySwitch(in, level, "evk:test", "ks")
	b.Output(out)

	s := b.G.Summarise(8)
	// Expect: 1 decomp iNTT, β BConv + β NTT (ModUp), 1 InP,
	// ModDown: 1 iNTT + 1 BConv + 1 NTT, 1 EW fix.
	beta := 3
	if got := s.KindCounts[graph.OpBConv]; got != beta+1 {
		t.Errorf("BConv count %d want %d", got, beta+1)
	}
	if got := s.KindCounts[graph.OpNTT]; got != beta+1 {
		t.Errorf("NTT count %d want %d", got, beta+1)
	}
	if got := s.KindCounts[graph.OpINTT]; got != 2 {
		t.Errorf("iNTT count %d want 2", got)
	}
	if got := s.KindCounts[graph.OpInP]; got != 1 {
		t.Errorf("InP count %d want 1", got)
	}
	// The evk aux must be present exactly once.
	if s.UniqueAuxes < 2 { // evk + bconv matrix
		t.Errorf("unique auxes %d", s.UniqueAuxes)
	}
}

func TestEvkShapeMatchesPaper(t *testing.T) {
	// evk shape is 2 × dnum × (α+ℓ+1) × N (§II-A).
	b := NewBuilder(testParams)
	level := testParams.L
	sh := b.evkShape(level)
	beta := (level + testParams.Alpha) / testParams.Alpha
	if sh.Digits != 2*beta {
		t.Errorf("evk digits %d want %d", sh.Digits, 2*beta)
	}
	if sh.Limbs != level+1+testParams.Alpha {
		t.Errorf("evk limbs %d", sh.Limbs)
	}
	if sh.N != testParams.N() {
		t.Errorf("evk N %d", sh.N)
	}
}

func TestHMultIncludesKeySwitchAndTensor(t *testing.T) {
	b := NewBuilder(testParams)
	x := b.Input("x", 4)
	y := b.Input("y", 4)
	out := b.HMult(x, y, 4, "hm")
	rs := b.Rescale(out, 4, "hm")
	b.Output(rs)

	s := b.G.Summarise(8)
	if s.KindCounts[graph.OpEWMul] < 2 { // tensor + moddown fix
		t.Errorf("EWMul count %d", s.KindCounts[graph.OpEWMul])
	}
	if s.KindCounts[graph.OpRescale] != 1 {
		t.Errorf("rescale count %d", s.KindCounts[graph.OpRescale])
	}
	// Graph must be acyclic and connected to the output.
	b.G.Topological()
}

func TestHRotHasAutomorphism(t *testing.T) {
	b := NewBuilder(testParams)
	x := b.Input("x", 3)
	out := b.HRot(x, 3, 5, "rot")
	b.Output(out)
	s := b.G.Summarise(8)
	if s.KindCounts[graph.OpAutomorph] != 1 {
		t.Errorf("automorph count %d", s.KindCounts[graph.OpAutomorph])
	}
}

func TestBabyRotationModes(t *testing.T) {
	level, n1 := 5, 8
	type result struct {
		nodes, evks int
	}
	results := map[RotMode]result{}
	for _, mode := range []RotMode{RotMinKS, RotHoisted, RotHybrid} {
		b := NewBuilder(testParams)
		x := b.Input("x", level)
		outs := b.BabyRotations(x, level, n1, mode, 4, "baby")
		if len(outs) != n1 {
			t.Fatalf("%v: %d outputs", mode, len(outs))
		}
		for i, o := range outs {
			if o == nil {
				t.Fatalf("%v: nil output %d", mode, i)
			}
			b.Output(o)
		}
		b.G.Topological() // acyclic check
		s := b.G.Summarise(8)
		evks := 0
		for _, node := range b.G.Nodes {
			if node.Kind == graph.OpConst && strings.HasPrefix(node.Name, "evk:") {
				evks++
			}
		}
		results[mode] = result{nodes: s.ComputeOps, evks: evks}
	}
	// Figure 8 trade-off: Min-KS uses 1 evk, Hoisting n1−1, Hybrid in
	// between (stride key + fine keys).
	if results[RotMinKS].evks != 1 {
		t.Errorf("min-ks evks %d want 1", results[RotMinKS].evks)
	}
	if results[RotHoisted].evks != n1-1 {
		t.Errorf("hoisting evks %d want %d", results[RotHoisted].evks, n1-1)
	}
	hy := results[RotHybrid].evks
	if hy <= 1 || hy >= n1-1 {
		t.Errorf("hybrid evks %d not strictly between", hy)
	}
	// Hoisting must save ModUp work vs Min-KS: fewer compute ops.
	if results[RotHoisted].nodes >= results[RotMinKS].nodes {
		t.Errorf("hoisting ops %d not fewer than min-ks %d",
			results[RotHoisted].nodes, results[RotMinKS].nodes)
	}
}

func TestBSGSMatVecBuilds(t *testing.T) {
	b := NewBuilder(testParams)
	x := b.Input("x", 5)
	out := b.BSGSMatVec(x, 5, 4, 4, 16, RotHoisted, 0, "mv")
	b.Output(out)
	b.G.Topological()
	s := b.G.Summarise(8)
	// 16 diagonals → 16 PMults; each PMult is an EWMul with a pt aux.
	pmults := 0
	for _, n := range b.G.Nodes {
		if n.Kind == graph.OpEWMul && strings.Contains(n.Name, "pmult") {
			pmults++
		}
	}
	if pmults != 16 {
		t.Errorf("pmult count %d want 16", pmults)
	}
	if s.KindCounts[graph.OpRescale] != 1 {
		t.Errorf("rescale count %d", s.KindCounts[graph.OpRescale])
	}
}

func TestBootstrappingWorkload(t *testing.T) {
	for _, mode := range []RotMode{RotMinKS, RotHoisted, RotHybrid} {
		w := Bootstrapping(testParams, mode, 4)
		if len(w.Segments) < 4 {
			t.Fatalf("%v: %d segments", mode, len(w.Segments))
		}
		if w.TotalOps() == 0 || w.TotalModMuls() == 0 {
			t.Fatalf("%v: empty workload", mode)
		}
		for _, s := range w.Segments {
			if s.Count < 1 {
				t.Fatalf("segment %s count %d", s.Name, s.Count)
			}
			s.G.Topological()
		}
	}
}

func TestWorkloadRelativeSizes(t *testing.T) {
	boot := Bootstrapping(testParams, RotHoisted, 0)
	r20 := ResNet(testParams, 20, RotHoisted, 0)
	r110 := ResNet(testParams, 110, RotHoisted, 0)
	if r110.TotalModMuls() <= r20.TotalModMuls() {
		t.Fatal("ResNet-110 should outweigh ResNet-20")
	}
	ratio := float64(r110.TotalModMuls()) / float64(r20.TotalModMuls())
	if ratio < 3 || ratio > 8 {
		t.Fatalf("ResNet-110/20 load ratio %.1f implausible (want ~5.5)", ratio)
	}
	if r20.TotalModMuls() <= boot.TotalModMuls() {
		t.Fatal("ResNet-20 (with 10 bootstraps) should outweigh one bootstrap")
	}
}

func TestHybridUsesFewerKeySwitchesThanMinKS(t *testing.T) {
	// §V-C: hybrid saves n1 − ceil(n1/r) ModUp/ModDown chains vs Min-KS.
	level, n1, r := 5, 16, 4
	count := func(mode RotMode) int64 {
		b := NewBuilder(testParams)
		x := b.Input("x", level)
		for i, o := range b.BabyRotations(x, level, n1, mode, r, "baby") {
			if i > 0 {
				b.Output(o)
			}
		}
		return b.G.TotalModMuls()
	}
	minks := count(RotMinKS)
	hybrid := count(RotHybrid)
	hoist := count(RotHoisted)
	if !(hoist < hybrid && hybrid < minks) {
		t.Fatalf("modmul ordering hoist %d < hybrid %d < minks %d violated",
			hoist, hybrid, minks)
	}
}

func TestDecomposeNTTsRewrite(t *testing.T) {
	b := NewBuilder(testParams)
	x := b.Input("x", 4)
	out := b.KeySwitch(x, 4, "evk:t", "ks")
	b.Output(out)

	before := b.G.Summarise(8)
	re := graph.DecomposeNTTs(b.G, nil)
	after := re.Summarise(8)

	if after.KindCounts[graph.OpNTT] != 0 || after.KindCounts[graph.OpINTT] != 0 {
		t.Fatal("whole NTTs remain after decomposition")
	}
	wholeNTTs := before.KindCounts[graph.OpNTT] + before.KindCounts[graph.OpINTT]
	if after.KindCounts[graph.OpNTTCol] != wholeNTTs ||
		after.KindCounts[graph.OpNTTRow] != wholeNTTs {
		t.Fatalf("col/row counts %d/%d want %d",
			after.KindCounts[graph.OpNTTCol], after.KindCounts[graph.OpNTTRow], wholeNTTs)
	}
	if after.KindCounts[graph.OpTranspose] != wholeNTTs {
		t.Fatal("transpose count")
	}
	re.Topological() // still acyclic

	// Butterfly work is preserved: N/2·logN split as N/2·logN1 + N/2·logN2
	// (plus the twiddle multiplies).
	if after.ModMuls <= before.ModMuls {
		t.Fatal("decomposed graph should add twiddle multiplies")
	}
}

func TestBalancedSplit(t *testing.T) {
	cases := map[int][2]int{16: {4, 4}, 64: {8, 8}, 4096: {64, 64}, 32: {8, 4}}
	for n, want := range cases {
		n1, n2 := graph.BalancedSplit(n)
		if n1 != want[0] || n2 != want[1] {
			t.Errorf("BalancedSplit(%d) = %d,%d", n, n1, n2)
		}
	}
}

func TestStandardSet(t *testing.T) {
	// The paper's four workloads, in plotting order, each resolvable by
	// its own name through the catalogue.
	names := []string{"bootstrapping", "helr1024", "resnet-20", "resnet-110"}
	got := Names()
	if len(got) != len(names) {
		t.Fatalf("standard set size %d", len(got))
	}
	for i, name := range got {
		if name != names[i] {
			t.Errorf("workload %d = %s want %s", i, name, names[i])
		}
		f, ok := Lookup(name, testParams)
		if !ok {
			t.Fatalf("%s does not resolve", name)
		}
		w := f(RotHoisted, 0)
		if w.Name != name {
			t.Errorf("workload %d = %s want %s", i, w.Name, name)
		}
		if w.DataParallel < 1 {
			t.Errorf("%s: data parallel %d", w.Name, w.DataParallel)
		}
	}
	if _, ok := Lookup("no-such-workload", testParams); ok {
		t.Error("unknown workload name resolved")
	}
}

func TestWorkloadDecomposeNTTs(t *testing.T) {
	w := Bootstrapping(testParams, RotHoisted, 0)
	d := w.DecomposeNTTs()
	if len(d.Segments) != len(w.Segments) {
		t.Fatal("segment count changed")
	}
	for i := range d.Segments {
		if d.Segments[i].Count != w.Segments[i].Count {
			t.Fatal("segment counts changed")
		}
		s := d.Segments[i].G.Summarise(8)
		if s.KindCounts[graph.OpNTT]+s.KindCounts[graph.OpINTT] != 0 {
			t.Fatal("NTTs remain")
		}
	}
}

package workload

import (
	"fmt"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

// Segment is one unique subgraph and how many times the workload executes
// it — the merged-redundancy representation of §V-D.
type Segment struct {
	Name  string
	G     *graph.Graph
	Count int
}

// Workload is a named list of segments under a parameter set.
type Workload struct {
	Name     string
	Params   arch.ParamSet
	Segments []Segment
	// DataParallel is the number of independent ciphertext streams
	// available — the parallelism CROPHE-p's cluster partitioning
	// exploits to share evks across clusters.
	DataParallel int
}

// TotalOps returns the total compute-operator count (segments × counts).
func (w *Workload) TotalOps() int {
	total := 0
	for _, s := range w.Segments {
		total += len(s.G.ComputeNodes()) * s.Count
	}
	return total
}

// TotalModMuls returns the total modular-multiply load.
func (w *Workload) TotalModMuls() int64 {
	var total int64
	for _, s := range w.Segments {
		total += s.G.TotalModMuls() * int64(s.Count)
	}
	return total
}

// bsgsDims picks a BSGS split n1×n2 ≥ diags with n1 ≈ √diags (powers of
// two), mirroring Algorithm 1's n1, n2 ~ √n.
func bsgsDims(diags int) (n1, n2 int) {
	n1 = 1
	for n1*n1 < diags {
		n1 <<= 1
	}
	n2 = (diags + n1 - 1) / n1
	if n2 < 1 {
		n2 = 1
	}
	return n1, n2
}

// matVecSegment builds one BSGS PtMatVecMult segment.
func matVecSegment(p arch.ParamSet, name string, level, diags int, mode RotMode, rHyb int) Segment {
	b := NewBuilder(p)
	in := b.Input(name+"/in", level)
	n1, n2 := bsgsDims(diags)
	out := b.BSGSMatVec(in, level, n1, n2, diags, mode, rHyb, name)
	b.Output(out)
	return Segment{Name: name, G: b.G}
}

// hmultSegment builds one HMult + Rescale segment at a level.
func hmultSegment(p arch.ParamSet, name string, level int) Segment {
	b := NewBuilder(p)
	x := b.Input(name+"/x", level)
	y := b.Input(name+"/y", level)
	m := b.HMult(x, y, level, name)
	out := b.Rescale(m, level, name)
	b.Output(out)
	return Segment{Name: name, G: b.G}
}

// cmultSegment builds a CMult + Rescale + HAdd segment (the EvalMod
// coefficient-combine step).
func cmultSegment(p arch.ParamSet, name string, level int) Segment {
	b := NewBuilder(p)
	x := b.Input(name+"/x", level)
	m := b.PMult(x, level, "pt:"+name, name)
	rs := b.Rescale(m, level, name)
	acc := b.Input(name+"/acc", level-1)
	out := b.HAdd(rs, acc, level-1, name)
	b.Output(out)
	return Segment{Name: name, G: b.G}
}

// Bootstrapping builds the paper's bootstrapping workload: CoeffToSlot and
// SlotToCoeff as staged BSGS matmuls, EvalMod as an HMult/CMult cascade —
// the optimised sparse-packed method [14]. The rotation mode selects the
// Figure 8 structure inside every BSGS stage.
func Bootstrapping(p arch.ParamSet, mode RotMode, rHyb int) *Workload {
	w := &Workload{Name: "bootstrapping", Params: p, DataParallel: 2}

	// The DFT matrices are radix-decomposed into 3 stages with ~N^(1/3)
	// diagonals each (standard practice; keeps rotation counts O(√n)).
	slots := p.N() / 2
	stageDiags := 1
	for stageDiags*stageDiags*stageDiags < slots {
		stageDiags <<= 1
	}

	// Three radix stages; identical structure per stage (the evk working
	// set repeats across stages and steady-state invocations, which is
	// what lets every design amortise resident-key fills).
	lC2S := p.L // C2S runs right after ModRaise, near the top level
	w.Segments = append(w.Segments,
		withCount(matVecSegment(p, "c2s", lC2S, stageDiags, mode, rHyb), 3))

	// EvalMod: a degree-63 sine cascade — 62 basis HMults plus 63
	// coefficient CMult/accumulates. The Chebyshev recursion descends
	// ⌈log₂ 63⌉ ≈ 6 levels below the post-C2S level, with geometrically
	// fewer (but individually cheaper) multiplications at each deeper
	// level; build one segment per depth so key-switch costs track the
	// shrinking limb counts.
	lTop := p.L - p.LBoot/2
	if lTop < p.Alpha+6 {
		lTop = p.Alpha + 6
	}
	remaining := 62
	for depth := 0; depth < 6 && remaining > 0; depth++ {
		// T_k basis building: ~half the products happen at each next
		// depth of the binary recursion.
		count := remaining / 2
		if depth == 5 || count < 1 {
			count = remaining
		}
		level := lTop - depth
		if level < 1 {
			level = 1
		}
		w.Segments = append(w.Segments,
			withCount(hmultSegment(p, fmt.Sprintf("evalmod-hmult-d%d", depth), level), count))
		remaining -= count
	}
	lMod := lTop - 5
	if lMod < 1 {
		lMod = 1
	}
	w.Segments = append(w.Segments,
		withCount(cmultSegment(p, "evalmod-cmult", lMod), 63))

	// SlotToCoeff at the remaining level.
	lS2C := p.L - p.LBoot + 4
	if lS2C < 4 {
		lS2C = 4
	}
	w.Segments = append(w.Segments,
		withCount(matVecSegment(p, "s2c", lS2C, stageDiags, mode, rHyb), 3))
	return w
}

// HELR builds one iteration of HELR1024 logistic-regression training [24]:
// the X·w matrix-vector product, a degree-7 sigmoid, the gradient inner
// sum (log-rotations), the weight update, and the per-iteration bootstrap.
func HELR(p arch.ParamSet, mode RotMode, rHyb int) *Workload {
	w := &Workload{Name: "helr1024", Params: p, DataParallel: 8}
	lApp := p.L - p.LBoot
	if lApp < 4 {
		lApp = 4
	}

	// X·w: a 256-padded matvec (196 features).
	w.Segments = append(w.Segments,
		withCount(matVecSegment(p, "helr-xw", lApp, 32, mode, rHyb), 1))

	// Sigmoid degree 7: 3 HMult levels.
	w.Segments = append(w.Segments,
		withCount(hmultSegment(p, "helr-sigmoid", lApp-1), 3))

	// Gradient reduction: log2(256) = 8 rotations + accumulate.
	b := NewBuilder(p)
	in := b.Input("helr-grad/in", lApp-2)
	cur := in
	for i := 0; i < 8; i++ {
		rot := b.HRot(cur, lApp-2, 1<<i, fmt.Sprintf("helr-grad/r%d", i))
		cur = b.HAdd(cur, rot, lApp-2, fmt.Sprintf("helr-grad/a%d", i))
	}
	b.Output(cur)
	w.Segments = append(w.Segments, Segment{Name: "helr-grad", G: b.G, Count: 1})

	// Weight update: PMult by learning rate + HAdd.
	w.Segments = append(w.Segments,
		withCount(cmultSegment(p, "helr-update", lApp-3), 2))

	// One bootstrap per iteration.
	boot := Bootstrapping(p, mode, rHyb)
	w.Segments = append(w.Segments, boot.Segments...)
	return w
}

// ResNet builds the encrypted ResNet inference workload [38]: per layer a
// multiplexed-convolution matvec plus a polynomial ReLU, with a bootstrap
// every other layer. layers = 20 or 110.
func ResNet(p arch.ParamSet, layers int, mode RotMode, rHyb int) *Workload {
	w := &Workload{
		Name:         fmt.Sprintf("resnet-%d", layers),
		Params:       p,
		DataParallel: 4,
	}
	lApp := p.L - p.LBoot
	if lApp < 4 {
		lApp = 4
	}

	// Convolution as BSGS matvec: multiplexed parallel convolution packs
	// a 3×3 kernel over packed channels into ~64 diagonals.
	w.Segments = append(w.Segments,
		withCount(matVecSegment(p, "conv", lApp, 64, mode, rHyb), layers))

	// ReLU: degree-27 minimax composite ≈ 10 multiplicative steps.
	w.Segments = append(w.Segments,
		withCount(hmultSegment(p, "relu", lApp-1), layers*10))

	// Downsample/shortcut adds: a rotation + add per residual block.
	b := NewBuilder(p)
	in := b.Input("shortcut/in", lApp-2)
	rot := b.HRot(in, lApp-2, 4, "shortcut/rot")
	out := b.HAdd(in, rot, lApp-2, "shortcut/add")
	b.Output(out)
	w.Segments = append(w.Segments, Segment{Name: "shortcut", G: b.G, Count: layers / 2})

	// Bootstrap every other layer.
	boot := Bootstrapping(p, mode, rHyb)
	for _, s := range boot.Segments {
		s.Count *= layers / 2
		w.Segments = append(w.Segments, s)
	}
	return w
}

func withCount(s Segment, count int) Segment {
	s.Count = count
	return s
}

// Factory builds a workload for a given rotation structure — the
// graph-level transform the scheduler enumerates for hybrid rotation
// (§V-D: "we enumerate it at the very beginning and generate one
// computational graph for each r_Hyb").
type Factory func(mode RotMode, rHyb int) *Workload

// builders is the one table of benchmark names: each workload's own Name
// plus the short aliases the command-line tools and the serving layer
// accept.
var builders = map[string]func(arch.ParamSet, RotMode, int) *Workload{
	"bootstrapping": Bootstrapping, "boot": Bootstrapping,
	"helr1024": HELR, "helr": HELR,
	"resnet-20": resNet(20), "resnet20": resNet(20),
	"resnet-110": resNet(110), "resnet110": resNet(110),
}

func resNet(layers int) func(arch.ParamSet, RotMode, int) *Workload {
	return func(p arch.ParamSet, mode RotMode, rHyb int) *Workload {
		return ResNet(p, layers, mode, rHyb)
	}
}

// Names lists the paper's four benchmarks by their own names, in the
// paper's plotting order.
func Names() []string {
	return []string{"bootstrapping", "helr1024", "resnet-20", "resnet-110"}
}

// Lookup returns the factory of the named benchmark under parameter set
// p. It builds nothing: each call of the factory builds one graph.
func Lookup(name string, p arch.ParamSet) (Factory, bool) {
	build, ok := builders[name]
	if !ok {
		return nil, false
	}
	return func(mode RotMode, rHyb int) *Workload { return build(p, mode, rHyb) }, true
}

// DecomposeNTTs applies the four-step rewrite to every segment.
func (w *Workload) DecomposeNTTs() *Workload {
	out := &Workload{Name: w.Name, Params: w.Params, DataParallel: w.DataParallel}
	for _, s := range w.Segments {
		out.Segments = append(out.Segments, Segment{
			Name:  s.Name,
			G:     graph.DecomposeNTTs(s.G, nil),
			Count: s.Count,
		})
	}
	return out
}

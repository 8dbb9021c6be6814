package workload

import (
	"fmt"
	"sync"

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

// segments builds the segment graphs of one parameter set and keeps
// every graph it has built, keyed by the arguments of the builder that
// made it, so each distinct segment graph is built once for the lifetime
// of a factory. BSGS segments are keyed by their rotation structure;
// every other segment is rotation-invariant and shared by every
// candidate. The graphs are read-only once built (see graph.Graph);
// each Segment value, and so its Count, is the caller's own. A graph is
// built outside the lock, so concurrent callers build different keys at
// once; callers of the same key wait for its one build.
type segments struct {
	p arch.ParamSet

	mu     sync.Mutex
	graphs map[segmentKey]*builtGraph
}

// builtGraph is one key's graph, built once by whichever caller runs
// once first.
type builtGraph struct {
	once sync.Once
	g    *graph.Graph
}

// segmentKey names a segment graph by its builder's arguments. The
// segment name identifies the builder; diags, mode and rHyb are zero
// except for BSGS segments.
type segmentKey struct {
	name         string
	level, diags int
	mode         RotMode
	rHyb         int
}

func newSegments(p arch.ParamSet) *segments {
	return &segments{p: p, graphs: make(map[segmentKey]*builtGraph)}
}

// segment returns the graph under k, running build on a fresh builder
// the first time k is asked for, with the given count.
func (c *segments) segment(k segmentKey, count int, build func(b *Builder)) Segment {
	c.mu.Lock()
	e, ok := c.graphs[k]
	if !ok {
		e = new(builtGraph)
		c.graphs[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		b := NewBuilder(c.p)
		build(b)
		e.g = b.G
	})
	if e.g == nil {
		// The build panicked (a builder bug); sync.Once will not run it
		// again, so every caller of the key fails the same way.
		panic(fmt.Sprintf("workload: segment %s was not built", k.name))
	}
	return Segment{Name: k.name, G: e.g, Count: count}
}

// matVec is one BSGS PtMatVecMult segment. It is keyed and built with
// the canonical form of its rotation structure (canonicalRot), so
// structures with one baby-step plan share one graph.
func (c *segments) matVec(name string, level, diags int, mode RotMode, rHyb, count int) Segment {
	n1, n2 := bsgsDims(diags)
	mode, rHyb = canonicalRot(n1, mode, rHyb)
	k := segmentKey{name: name, level: level, diags: diags, mode: mode, rHyb: rHyb}
	return c.segment(k, count, func(b *Builder) {
		in := b.Input(name+"/in", level)
		b.Output(b.BSGSMatVec(in, level, n1, n2, diags, mode, rHyb, name))
	})
}

// hmult is one HMult + Rescale segment at a level.
func (c *segments) hmult(name string, level, count int) Segment {
	return c.segment(segmentKey{name: name, level: level}, count, func(b *Builder) {
		x := b.Input(name+"/x", level)
		y := b.Input(name+"/y", level)
		m := b.HMult(x, y, level, name)
		b.Output(b.Rescale(m, level, name))
	})
}

// cmult is a CMult + Rescale + HAdd segment (the EvalMod
// coefficient-combine step).
func (c *segments) cmult(name string, level, count int) Segment {
	return c.segment(segmentKey{name: name, level: level}, count, func(b *Builder) {
		x := b.Input(name+"/x", level)
		m := b.PMult(x, level, "pt:"+name, name)
		rs := b.Rescale(m, level, name)
		acc := b.Input(name+"/acc", level-1)
		b.Output(b.HAdd(rs, acc, level-1, name))
	})
}

// Bootstrapping builds the paper's bootstrapping workload: CoeffToSlot and
// SlotToCoeff as staged BSGS matmuls, EvalMod as an HMult/CMult cascade —
// the optimised sparse-packed method [14]. The rotation mode selects the
// Figure 8 structure inside every BSGS stage.
func Bootstrapping(p arch.ParamSet, mode RotMode, rHyb int) *Workload {
	return newSegments(p).bootstrapping(mode, rHyb)
}

func (c *segments) bootstrapping(mode RotMode, rHyb int) *Workload {
	p := c.p
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
	w.Segments = append(w.Segments, c.matVec("c2s", lC2S, stageDiags, mode, rHyb, 3))

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
		w.Segments = append(w.Segments, c.hmult(fmt.Sprintf("evalmod-hmult-d%d", depth), level, count))
		remaining -= count
	}
	lMod := lTop - 5
	if lMod < 1 {
		lMod = 1
	}
	w.Segments = append(w.Segments, c.cmult("evalmod-cmult", lMod, 63))

	// SlotToCoeff at the remaining level.
	lS2C := p.L - p.LBoot + 4
	if lS2C < 4 {
		lS2C = 4
	}
	w.Segments = append(w.Segments, c.matVec("s2c", lS2C, stageDiags, mode, rHyb, 3))
	return w
}

// HELR builds one iteration of HELR1024 logistic-regression training [24]:
// the X·w matrix-vector product, a degree-7 sigmoid, the gradient inner
// sum (log-rotations), the weight update, and the per-iteration bootstrap.
func HELR(p arch.ParamSet, mode RotMode, rHyb int) *Workload {
	return newSegments(p).helr(mode, rHyb)
}

func (c *segments) helr(mode RotMode, rHyb int) *Workload {
	p := c.p
	w := &Workload{Name: "helr1024", Params: p, DataParallel: 8}
	lApp := p.L - p.LBoot
	if lApp < 4 {
		lApp = 4
	}

	// X·w: a 256-padded matvec (196 features).
	w.Segments = append(w.Segments, c.matVec("helr-xw", lApp, 32, mode, rHyb, 1))

	// Sigmoid degree 7: 3 HMult levels.
	w.Segments = append(w.Segments, c.hmult("helr-sigmoid", lApp-1, 3))

	// Gradient reduction: log2(256) = 8 rotations + accumulate.
	w.Segments = append(w.Segments, c.segment(segmentKey{name: "helr-grad", level: lApp - 2}, 1, func(b *Builder) {
		cur := b.Input("helr-grad/in", lApp-2)
		for i := 0; i < 8; i++ {
			rot := b.HRot(cur, lApp-2, 1<<i, fmt.Sprintf("helr-grad/r%d", i))
			cur = b.HAdd(cur, rot, lApp-2, fmt.Sprintf("helr-grad/a%d", i))
		}
		b.Output(cur)
	}))

	// Weight update: PMult by learning rate + HAdd.
	w.Segments = append(w.Segments, c.cmult("helr-update", lApp-3, 2))

	// One bootstrap per iteration.
	w.Segments = append(w.Segments, c.bootstrapping(mode, rHyb).Segments...)
	return w
}

// ResNet builds the encrypted ResNet inference workload [38]: per layer a
// multiplexed-convolution matvec plus a polynomial ReLU, with a bootstrap
// every other layer. layers = 20 or 110.
func ResNet(p arch.ParamSet, layers int, mode RotMode, rHyb int) *Workload {
	return newSegments(p).resNet(layers, mode, rHyb)
}

func (c *segments) resNet(layers int, mode RotMode, rHyb int) *Workload {
	p := c.p
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
	w.Segments = append(w.Segments, c.matVec("conv", lApp, 64, mode, rHyb, layers))

	// ReLU: degree-27 minimax composite ≈ 10 multiplicative steps.
	w.Segments = append(w.Segments, c.hmult("relu", lApp-1, layers*10))

	// Downsample/shortcut adds: a rotation + add per residual block.
	w.Segments = append(w.Segments, c.segment(segmentKey{name: "shortcut", level: lApp - 2}, layers/2, func(b *Builder) {
		in := b.Input("shortcut/in", lApp-2)
		rot := b.HRot(in, lApp-2, 4, "shortcut/rot")
		b.Output(b.HAdd(in, rot, lApp-2, "shortcut/add"))
	}))

	// Bootstrap every other layer.
	for _, s := range c.bootstrapping(mode, rHyb).Segments {
		s.Count *= layers / 2
		w.Segments = append(w.Segments, s)
	}
	return w
}

// Factory builds a workload for a given rotation structure — the
// graph-level transform the scheduler enumerates for hybrid rotation
// (§V-D: "we enumerate it at the very beginning and generate one
// computational graph for each r_Hyb").
type Factory func(mode RotMode, rHyb int) *Workload

// builders is the one table of benchmark names: each workload's own Name
// plus the short aliases the command-line tools and the serving layer
// accept.
var builders = map[string]func(*segments, RotMode, int) *Workload{
	"bootstrapping": (*segments).bootstrapping, "boot": (*segments).bootstrapping,
	"helr1024": (*segments).helr, "helr": (*segments).helr,
	"resnet-20": resNet(20), "resnet20": resNet(20),
	"resnet-110": resNet(110), "resnet110": resNet(110),
}

func resNet(layers int) func(*segments, RotMode, int) *Workload {
	return func(c *segments, mode RotMode, rHyb int) *Workload {
		return c.resNet(layers, mode, rHyb)
	}
}

// Names lists the paper's four benchmarks by their own names, in the
// paper's plotting order.
func Names() []string {
	return []string{"bootstrapping", "helr1024", "resnet-20", "resnet-110"}
}

// Lookup returns the factory of the named benchmark under parameter set
// p. It builds nothing itself. The factory keeps the segment graphs it
// builds, so each distinct segment graph is built once however many
// rotation candidates ask for it; every call returns a new Workload
// with its own Segments. A factory is safe for concurrent use.
func Lookup(name string, p arch.ParamSet) (Factory, bool) {
	build, ok := builders[name]
	if !ok {
		return nil, false
	}
	return newFactory(p, build), true
}

// ResNetFactory is Lookup's factory for an encrypted ResNet of any layer
// count, with a segment cache of its own.
func ResNetFactory(p arch.ParamSet, layers int) Factory {
	return newFactory(p, resNet(layers))
}

func newFactory(p arch.ParamSet, build func(*segments, RotMode, int) *Workload) Factory {
	c := newSegments(p)
	return func(mode RotMode, rHyb int) *Workload { return build(c, mode, rHyb) }
}

// DecomposeNTTs applies the four-step rewrite to every segment. Each
// segment graph is rewritten once (graph.Graph.Decomposed), so
// workloads that share a segment graph share its rewrite too.
func (w *Workload) DecomposeNTTs() *Workload {
	out := &Workload{Name: w.Name, Params: w.Params, DataParallel: w.DataParallel}
	for _, s := range w.Segments {
		out.Segments = append(out.Segments, Segment{Name: s.Name, G: s.G.Decomposed(), Count: s.Count})
	}
	return out
}

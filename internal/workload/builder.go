// Package workload builds the operator graphs of the paper's four
// benchmark workloads — bootstrapping, HELR1024, ResNet-20 and ResNet-110 —
// from composite builders for the CKKS homomorphic operations (HMult, HRot,
// PMult, key-switching with digit decomposition, BSGS PtMatVecMult).
//
// Workloads are represented as a list of (segment graph, repetition count):
// repeated structures such as the KeySwitch subgraph are built once and
// multiplied, mirroring the paper's pre-partitioning that "merges redundant
// cases and only searches once" (§V-D).
package workload

import (
	"fmt"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

// RotMode selects the baby-step rotation structure of Figure 8.
type RotMode int

// Rotation structure variants.
const (
	RotMinKS RotMode = iota
	RotHoisted
	RotHybrid
)

// String implements fmt.Stringer.
func (m RotMode) String() string {
	switch m {
	case RotMinKS:
		return "min-ks"
	case RotHoisted:
		return "hoisting"
	case RotHybrid:
		return "hybrid"
	}
	return "?"
}

// Builder accumulates nodes into a graph under a parameter set.
type Builder struct {
	G *graph.Graph
	P arch.ParamSet

	consts map[string]*graph.Node
}

// NewBuilder creates a builder with a fresh graph.
func NewBuilder(p arch.ParamSet) *Builder {
	return &Builder{G: graph.New(), P: p, consts: make(map[string]*graph.Node)}
}

func (b *Builder) limbs(level int) int { return level + 1 }

func (b *Builder) beta(level int) int {
	return (level + b.P.Alpha) / b.P.Alpha // ceil((level+1)/alpha)
}

// ctShape is the (1, ℓ+1, N) tensor of one ciphertext polynomial.
func (b *Builder) ctShape(level int) graph.Tensor {
	return graph.Tensor{Digits: 1, Limbs: b.limbs(level), N: b.P.N()}
}

// extShape is the (1, α+ℓ+1, N) tensor after ModUp.
func (b *Builder) extShape(level int) graph.Tensor {
	return graph.Tensor{Digits: 1, Limbs: b.limbs(level) + b.P.Alpha, N: b.P.N()}
}

// Input declares an external ciphertext input (both polynomials folded
// into one node with 2(ℓ+1) limbs for traffic accounting).
func (b *Builder) Input(name string, level int) *graph.Node {
	return b.G.AddNode(graph.OpInput, name,
		graph.Tensor{Digits: 1, Limbs: 2 * b.limbs(level), N: b.P.N()})
}

// Output marks a node as an external result.
func (b *Builder) Output(n *graph.Node) {
	o := b.G.AddNode(graph.OpOutput, "out:"+n.Name, n.Out)
	b.G.Connect(n, o)
}

// constNode returns (creating once) the auxiliary constant source with the
// given id and shape.
func (b *Builder) constNode(id string, shape graph.Tensor) *graph.Node {
	if n, ok := b.consts[id]; ok {
		return n
	}
	n := b.G.AddNode(graph.OpConst, id, shape)
	b.consts[id] = n
	return n
}

// evkShape is the 2 × β_max × (α+ℓ+1) × N switching-key tensor at a level.
func (b *Builder) evkShape(level int) graph.Tensor {
	return graph.Tensor{
		Digits: 2 * b.beta(level),
		Limbs:  b.limbs(level) + b.P.Alpha,
		N:      b.P.N(),
	}
}

// KeySwitch builds the Decomp → ModUp → KSKInP → ModDown subgraph of
// Figure 1 on input x (one polynomial at the given level), consuming the
// evk identified by evkID. Returns the (b', a') contribution folded into a
// single node of 2(ℓ+1) limbs.
func (b *Builder) KeySwitch(x *graph.Node, level int, evkID, tag string) *graph.Node {
	g := b.G
	l := b.limbs(level)
	beta := b.beta(level)
	n := b.P.N()

	// Decomp: iNTT the operand once (ℓ+1 limbs).
	intt := g.AddNode(graph.OpINTT, tag+"/decomp-intt", b.ctShape(level))
	intt.SubNTTLen = n
	intt.Tag = tag
	g.Connect(x, intt)

	// ModUp: per digit, BConv to the complement basis then NTT.
	bconvM := b.constNode(fmt.Sprintf("bconvM:l%d", level),
		graph.Tensor{Digits: 1, Limbs: 1, N: b.P.Alpha * (l + b.P.Alpha)})
	digits := make([]*graph.Node, beta)
	for d := 0; d < beta; d++ {
		bc := g.AddNode(graph.OpBConv, fmt.Sprintf("%s/modup-bconv[%d]", tag, d), b.extShape(level))
		bc.BConvWidth = b.P.Alpha
		bc.Tag = tag
		g.Connect(intt, bc)
		g.ConnectAux(bconvM, bc, bconvM.Name)

		ntt := g.AddNode(graph.OpNTT, fmt.Sprintf("%s/modup-ntt[%d]", tag, d), b.extShape(level))
		ntt.SubNTTLen = n
		ntt.Tag = tag
		g.Connect(bc, ntt)
		digits[d] = ntt
	}

	// KSKInP: inner product with the evk along the digit dimension,
	// producing the two polynomials.
	evk := b.constNode(evkID, b.evkShape(level))
	inp := g.AddNode(graph.OpInP, tag+"/kskinp",
		graph.Tensor{Digits: 1, Limbs: 2 * (l + b.P.Alpha), N: n})
	inp.Tag = tag
	for _, d := range digits {
		g.Connect(d, inp)
	}
	// Record the digit dimension on the input edge shape for load calc.
	if len(inp.InEdges) > 0 {
		inp.InEdges[0].Shape.Digits = beta
	}
	g.ConnectAux(evk, inp, evkID)

	// ModDown: iNTT the P-part, BConv back to Q, NTT, subtract & scale.
	mdIntt := g.AddNode(graph.OpINTT, tag+"/moddown-intt",
		graph.Tensor{Digits: 1, Limbs: 2 * b.P.Alpha, N: n})
	mdIntt.SubNTTLen = n
	mdIntt.Tag = tag
	g.Connect(inp, mdIntt)

	mdBc := g.AddNode(graph.OpBConv, tag+"/moddown-bconv",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	mdBc.BConvWidth = b.P.Alpha
	mdBc.Tag = tag
	g.Connect(mdIntt, mdBc)
	g.ConnectAux(bconvM, mdBc, bconvM.Name)

	mdNtt := g.AddNode(graph.OpNTT, tag+"/moddown-ntt",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	mdNtt.SubNTTLen = n
	mdNtt.Tag = tag
	g.Connect(mdBc, mdNtt)

	fix := g.AddNode(graph.OpEWMul, tag+"/moddown-fix",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	fix.Tag = tag
	g.Connect(inp, fix)
	g.Connect(mdNtt, fix)
	return fix
}

// HMult builds homomorphic multiplication: tensor product, key-switch of
// d2, and fold-in. The result stays un-rescaled; call Rescale.
func (b *Builder) HMult(x, y *graph.Node, level int, tag string) *graph.Node {
	g := b.G
	n := b.P.N()
	l := b.limbs(level)

	tensor := g.AddNode(graph.OpEWMul, tag+"/tensor",
		graph.Tensor{Digits: 1, Limbs: 3 * l, N: n}) // d0, d1, d2
	tensor.Tag = tag
	g.Connect(x, tensor)
	g.Connect(y, tensor)

	ks := b.KeySwitch(tensor, level, fmt.Sprintf("evk:mult:l%d", level), tag+"/ks")

	fold := g.AddNode(graph.OpEWAdd, tag+"/fold",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	fold.Tag = tag
	g.Connect(tensor, fold)
	g.Connect(ks, fold)
	return fold
}

// Rescale drops the ciphertext one level.
func (b *Builder) Rescale(x *graph.Node, level int, tag string) *graph.Node {
	rs := b.G.AddNode(graph.OpRescale, tag+"/rescale",
		graph.Tensor{Digits: 1, Limbs: 2 * b.limbs(level-1), N: b.P.N()})
	rs.Tag = tag
	b.G.Connect(x, rs)
	return rs
}

// HAdd adds two ciphertexts.
func (b *Builder) HAdd(x, y *graph.Node, level int, tag string) *graph.Node {
	add := b.G.AddNode(graph.OpEWAdd, tag+"/hadd",
		graph.Tensor{Digits: 1, Limbs: 2 * b.limbs(level), N: b.P.N()})
	add.Tag = tag
	b.G.Connect(x, add)
	b.G.Connect(y, add)
	return add
}

// PMult multiplies by a plaintext identified by ptID (auxiliary data of
// one polynomial).
func (b *Builder) PMult(x *graph.Node, level int, ptID, tag string) *graph.Node {
	pt := b.constNode(ptID, b.ctShape(level))
	mul := b.G.AddNode(graph.OpEWMul, tag+"/pmult",
		graph.Tensor{Digits: 1, Limbs: 2 * b.limbs(level), N: b.P.N()})
	mul.Tag = tag
	b.G.Connect(x, mul)
	b.G.ConnectAux(pt, mul, ptID)
	return mul
}

// HRot builds a full homomorphic rotation: automorphism of both
// polynomials followed by a key-switch with the rotation evk.
func (b *Builder) HRot(x *graph.Node, level, amount int, tag string) *graph.Node {
	g := b.G
	l := b.limbs(level)
	n := b.P.N()

	auto := g.AddNode(graph.OpAutomorph, tag+"/auto",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	auto.Tag = tag
	g.Connect(x, auto)

	ks := b.KeySwitch(auto, level, fmt.Sprintf("evk:rot%d:l%d", amount, level), tag+"/ks")

	add := g.AddNode(graph.OpEWAdd, tag+"/fold",
		graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
	add.Tag = tag
	g.Connect(auto, add)
	g.Connect(ks, add)
	return add
}

// hoistedRotations builds the Hoisting structure of Figure 8(b): the
// Decomp/ModUp of x is shared, and each rotation applies its automorphism
// to the extended digits, inner-products with its own evk and mod-downs.
func (b *Builder) hoistedRotations(x *graph.Node, level int, amounts []int, tag string) []*graph.Node {
	g := b.G
	l := b.limbs(level)
	beta := b.beta(level)
	n := b.P.N()

	// Shared Decomp + ModUp.
	intt := g.AddNode(graph.OpINTT, tag+"/hoist-intt", b.ctShape(level))
	intt.SubNTTLen = n
	intt.Tag = tag
	g.Connect(x, intt)
	bconvM := b.constNode(fmt.Sprintf("bconvM:l%d", level),
		graph.Tensor{Digits: 1, Limbs: 1, N: b.P.Alpha * (l + b.P.Alpha)})
	digits := make([]*graph.Node, beta)
	for d := 0; d < beta; d++ {
		bc := g.AddNode(graph.OpBConv, fmt.Sprintf("%s/hoist-bconv[%d]", tag, d), b.extShape(level))
		bc.BConvWidth = b.P.Alpha
		bc.Tag = tag
		g.Connect(intt, bc)
		g.ConnectAux(bconvM, bc, bconvM.Name)
		ntt := g.AddNode(graph.OpNTT, fmt.Sprintf("%s/hoist-ntt[%d]", tag, d), b.extShape(level))
		ntt.SubNTTLen = n
		ntt.Tag = tag
		g.Connect(bc, ntt)
		digits[d] = ntt
	}

	outs := make([]*graph.Node, len(amounts))
	for i, r := range amounts {
		rtag := fmt.Sprintf("%s/r%d", tag, r)
		// Automorphism applied to the extended digits and to the input.
		auto := g.AddNode(graph.OpAutomorph, rtag+"/auto",
			graph.Tensor{Digits: beta, Limbs: l + b.P.Alpha, N: n})
		auto.Tag = tag
		for _, d := range digits {
			g.Connect(d, auto)
		}
		evkID := fmt.Sprintf("evk:rot%d:l%d", r, level)
		evk := b.constNode(evkID, b.evkShape(level))
		inp := g.AddNode(graph.OpInP, rtag+"/kskinp",
			graph.Tensor{Digits: 1, Limbs: 2 * (l + b.P.Alpha), N: n})
		inp.Tag = tag
		g.Connect(auto, inp)
		inp.InEdges[0].Shape.Digits = beta
		g.ConnectAux(evk, inp, evkID)

		mdIntt := g.AddNode(graph.OpINTT, rtag+"/moddown-intt",
			graph.Tensor{Digits: 1, Limbs: 2 * b.P.Alpha, N: n})
		mdIntt.SubNTTLen = n
		mdIntt.Tag = tag
		g.Connect(inp, mdIntt)
		mdBc := g.AddNode(graph.OpBConv, rtag+"/moddown-bconv",
			graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
		mdBc.BConvWidth = b.P.Alpha
		mdBc.Tag = tag
		g.Connect(mdIntt, mdBc)
		g.ConnectAux(bconvM, mdBc, bconvM.Name)
		mdNtt := g.AddNode(graph.OpNTT, rtag+"/moddown-ntt",
			graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
		mdNtt.SubNTTLen = n
		mdNtt.Tag = tag
		g.Connect(mdBc, mdNtt)

		fold := g.AddNode(graph.OpEWAdd, rtag+"/fold",
			graph.Tensor{Digits: 1, Limbs: 2 * l, N: n})
		fold.Tag = tag
		g.Connect(inp, fold)
		g.Connect(mdNtt, fold)
		g.Connect(x, fold) // the rotated b-part contribution
		outs[i] = fold
	}
	return outs
}

// BabyRotations builds the n1 baby-step ciphertexts with the selected
// rotation structure (Figure 8). rHyb is only used in hybrid mode.
func (b *Builder) BabyRotations(x *graph.Node, level, n1 int, mode RotMode, rHyb int, tag string) []*graph.Node {
	switch mode {
	case RotMinKS:
		outs := make([]*graph.Node, n1)
		outs[0] = x
		cur := x
		for i := 1; i < n1; i++ {
			cur = b.HRot(cur, level, 1, fmt.Sprintf("%s/minks%d", tag, i))
			outs[i] = cur
		}
		return outs
	case RotHoisted:
		amounts := make([]int, 0, n1-1)
		for i := 1; i < n1; i++ {
			amounts = append(amounts, i)
		}
		outs := make([]*graph.Node, n1)
		outs[0] = x
		copy(outs[1:], b.hoistedRotations(x, level, amounts, tag))
		return outs
	case RotHybrid:
		if rHyb < 1 {
			rHyb = 1
		}
		outs := make([]*graph.Node, n1)
		coarse := x
		for base := 0; base < n1; base += rHyb {
			if base > 0 {
				coarse = b.HRot(coarse, level, rHyb, fmt.Sprintf("%s/coarse%d", tag, base))
			}
			outs[base] = coarse
			var fine []int
			for f := 1; f < rHyb && base+f < n1; f++ {
				fine = append(fine, f)
			}
			if len(fine) > 0 {
				hs := b.hoistedRotations(coarse, level, fine, fmt.Sprintf("%s/fine%d", tag, base))
				copy(outs[base+1:], hs)
			}
		}
		return outs
	}
	panic("workload: unknown rotation mode")
}

// BSGSMatVec builds Algorithm 1: baby rotations, diagonal PMults with
// partial-sum accumulation, giant-step rotations, and a final rescale.
// diags caps the number of non-zero diagonals (structured matrices have
// far fewer than n1·n2). Returns the output node.
func (b *Builder) BSGSMatVec(x *graph.Node, level, n1, n2, diags int, mode RotMode, rHyb int, tag string) *graph.Node {
	babies := b.BabyRotations(x, level, n1, mode, rHyb, tag+"/baby")
	var acc *graph.Node
	used := 0
	for j := 0; j < n2 && used < diags; j++ {
		var inner *graph.Node
		for i := 0; i < n1 && used < diags; i++ {
			ptID := fmt.Sprintf("pt:%s:d%d", tag, n1*j+i)
			term := b.PMult(babies[i], level, ptID, fmt.Sprintf("%s/g%d/b%d", tag, j, i))
			used++
			if inner == nil {
				inner = term
			} else {
				inner = b.HAdd(inner, term, level, fmt.Sprintf("%s/g%d/acc%d", tag, j, i))
			}
		}
		if inner == nil {
			break
		}
		if j > 0 {
			inner = b.HRot(inner, level, n1*j, fmt.Sprintf("%s/giant%d", tag, j))
		}
		if acc == nil {
			acc = inner
		} else {
			acc = b.HAdd(acc, inner, level, fmt.Sprintf("%s/gacc%d", tag, j))
		}
	}
	return b.Rescale(acc, level, tag)
}

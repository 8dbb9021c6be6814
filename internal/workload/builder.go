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

// Builder accumulates nodes into a graph under a parameter set. Every
// CKKS operator it builds is a short composition of the stages below;
// the key switch of Figure 1 is written once, as modUp then inpModDown,
// and hoisting (Figure 8(b)) shares one modUp among its rotations.
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

// tensor is the (1, limbs, N) shape of undecomposed polynomial data.
func (b *Builder) tensor(limbs int) graph.Tensor {
	return graph.Tensor{Digits: 1, Limbs: limbs, N: b.P.N()}
}

// evkShape is the 2 × β_max × (α+ℓ+1) × N switching-key tensor at a level.
func (b *Builder) evkShape(level int) graph.Tensor {
	return graph.Tensor{
		Digits: 2 * b.beta(level),
		Limbs:  b.limbs(level) + b.P.Alpha,
		N:      b.P.N(),
	}
}

// rotEvkID names the rotation key for amount at a level.
func rotEvkID(amount, level int) string { return fmt.Sprintf("evk:rot%d:l%d", amount, level) }

// node adds an operator and connects its inputs in order. Whole (i)NTTs
// transform length N and BConvs read α source limbs.
func (b *Builder) node(kind graph.OpKind, name string, out graph.Tensor, ins ...*graph.Node) *graph.Node {
	n := b.G.AddNode(kind, name, out)
	switch kind {
	case graph.OpNTT, graph.OpINTT:
		n.SubNTTLen = b.P.N()
	case graph.OpBConv:
		n.BConvWidth = b.P.Alpha
	}
	for _, in := range ins {
		b.G.Connect(in, n)
	}
	return n
}

// Input declares an external ciphertext input (both polynomials folded
// into one node with 2(ℓ+1) limbs for traffic accounting).
func (b *Builder) Input(name string, level int) *graph.Node {
	return b.node(graph.OpInput, name, b.tensor(2*b.limbs(level)))
}

// Output marks a node as an external result.
func (b *Builder) Output(n *graph.Node) {
	b.node(graph.OpOutput, "out:"+n.Name, n.Out, n)
}

// constNode returns (creating once) the auxiliary constant source with the
// given id and shape.
func (b *Builder) constNode(id string, shape graph.Tensor) *graph.Node {
	if n, ok := b.consts[id]; ok {
		return n
	}
	n := b.node(graph.OpConst, id, shape)
	b.consts[id] = n
	return n
}

// modUp builds Decomp → ModUp of x (one polynomial at the given level):
// one iNTT named inttName, then per digit a BConv to the complement
// basis and an NTT, named stage+"-bconv[d]" and stage+"-ntt[d]". It
// returns the β extended digits and the level's BConv matrix, which
// ModDown reads too.
func (b *Builder) modUp(x *graph.Node, level int, inttName, stage string) (digits []*graph.Node, bconvM *graph.Node) {
	l, alpha := b.limbs(level), b.P.Alpha
	intt := b.node(graph.OpINTT, inttName, b.tensor(l), x)
	bconvM = b.constNode(fmt.Sprintf("bconvM:l%d", level), graph.Tensor{Digits: 1, Limbs: 1, N: alpha * (l + alpha)})
	digits = make([]*graph.Node, b.beta(level))
	for d := range digits {
		bc := b.node(graph.OpBConv, fmt.Sprintf("%s-bconv[%d]", stage, d), b.tensor(l+alpha), intt)
		b.G.ConnectAux(bconvM, bc, bconvM.Name)
		digits[d] = b.node(graph.OpNTT, fmt.Sprintf("%s-ntt[%d]", stage, d), b.tensor(l+alpha), bc)
	}
	return digits, bconvM
}

// inpModDown builds KSKInP of the extended digits in with the evk evkID,
// then ModDown's iNTT → BConv → NTT of the P part. It returns the inner
// product and the ModDown NTT; the caller subtracts and scales them.
func (b *Builder) inpModDown(level int, evkID, tag string, bconvM *graph.Node, in ...*graph.Node) (inp, md *graph.Node) {
	l, alpha := b.limbs(level), b.P.Alpha
	evk := b.constNode(evkID, b.evkShape(level))
	inp = b.node(graph.OpInP, tag+"/kskinp", b.tensor(2*(l+alpha)), in...)
	// Record the digit dimension on the input edge shape for load calc.
	inp.InEdges[0].Shape.Digits = b.beta(level)
	b.G.ConnectAux(evk, inp, evkID)

	mdIntt := b.node(graph.OpINTT, tag+"/moddown-intt", b.tensor(2*alpha), inp)
	mdBc := b.node(graph.OpBConv, tag+"/moddown-bconv", b.tensor(2*l), mdIntt)
	b.G.ConnectAux(bconvM, mdBc, bconvM.Name)
	return inp, b.node(graph.OpNTT, tag+"/moddown-ntt", b.tensor(2*l), mdBc)
}

// KeySwitch builds the Decomp → ModUp → KSKInP → ModDown subgraph of
// Figure 1 on input x (one polynomial at the given level), consuming the
// evk identified by evkID. Returns the (b', a') contribution folded into a
// single node of 2(ℓ+1) limbs.
func (b *Builder) KeySwitch(x *graph.Node, level int, evkID, tag string) *graph.Node {
	digits, bconvM := b.modUp(x, level, tag+"/decomp-intt", tag+"/modup")
	inp, md := b.inpModDown(level, evkID, tag, bconvM, digits...)
	return b.node(graph.OpEWMul, tag+"/moddown-fix", b.tensor(2*b.limbs(level)), inp, md)
}

// switchFold key-switches x with the evk evkID and folds the result
// into x: the tail HMult and HRot share.
func (b *Builder) switchFold(x *graph.Node, level int, evkID, tag string) *graph.Node {
	ks := b.KeySwitch(x, level, evkID, tag+"/ks")
	return b.node(graph.OpEWAdd, tag+"/fold", b.tensor(2*b.limbs(level)), x, ks)
}

// HMult builds homomorphic multiplication: tensor product, key-switch of
// d2, and fold-in. The result stays un-rescaled; call Rescale.
func (b *Builder) HMult(x, y *graph.Node, level int, tag string) *graph.Node {
	prod := b.node(graph.OpEWMul, tag+"/tensor", b.tensor(3*b.limbs(level)), x, y) // d0, d1, d2
	return b.switchFold(prod, level, fmt.Sprintf("evk:mult:l%d", level), tag)
}

// Rescale drops the ciphertext one level.
func (b *Builder) Rescale(x *graph.Node, level int, tag string) *graph.Node {
	return b.node(graph.OpRescale, tag+"/rescale", b.tensor(2*b.limbs(level-1)), x)
}

// HAdd adds two ciphertexts.
func (b *Builder) HAdd(x, y *graph.Node, level int, tag string) *graph.Node {
	return b.node(graph.OpEWAdd, tag+"/hadd", b.tensor(2*b.limbs(level)), x, y)
}

// PMult multiplies by a plaintext identified by ptID (auxiliary data of
// one polynomial).
func (b *Builder) PMult(x *graph.Node, level int, ptID, tag string) *graph.Node {
	pt := b.constNode(ptID, b.tensor(b.limbs(level)))
	mul := b.node(graph.OpEWMul, tag+"/pmult", b.tensor(2*b.limbs(level)), x)
	b.G.ConnectAux(pt, mul, ptID)
	return mul
}

// HRot builds a full homomorphic rotation: automorphism of both
// polynomials followed by a key-switch with the rotation evk.
func (b *Builder) HRot(x *graph.Node, level, amount int, tag string) *graph.Node {
	auto := b.node(graph.OpAutomorph, tag+"/auto", b.tensor(2*b.limbs(level)), x)
	return b.switchFold(auto, level, rotEvkID(amount, level), tag)
}

// hoistedRotations builds the Hoisting structure of Figure 8(b): the
// Decomp/ModUp of x is shared, and each rotation applies its automorphism
// to the extended digits, inner-products with its own evk and mod-downs.
func (b *Builder) hoistedRotations(x *graph.Node, level int, amounts []int, tag string) []*graph.Node {
	l := b.limbs(level)
	digits, bconvM := b.modUp(x, level, tag+"/hoist-intt", tag+"/hoist")
	outs := make([]*graph.Node, len(amounts))
	for i, r := range amounts {
		rtag := fmt.Sprintf("%s/r%d", tag, r)
		auto := b.node(graph.OpAutomorph, rtag+"/auto",
			graph.Tensor{Digits: len(digits), Limbs: l + b.P.Alpha, N: b.P.N()}, digits...)
		inp, md := b.inpModDown(level, rotEvkID(r, level), rtag, bconvM, auto)
		// x stands for the rotated b part; σ(b) itself is not priced.
		outs[i] = b.node(graph.OpEWAdd, rtag+"/fold", b.tensor(2*l), inp, md, x)
	}
	return outs
}

// BabyRotations builds the n1 baby-step ciphertexts by walking BabyPlan
// (Figure 8). rHyb is only used in hybrid mode.
func (b *Builder) BabyRotations(x *graph.Node, level, n1 int, mode RotMode, rHyb int, tag string) []*graph.Node {
	outs := make([]*graph.Node, n1)
	outs[0] = x
	for _, s := range BabyPlan(n1, mode, rHyb) {
		if s.Hoisted {
			htag := tag
			if mode == RotHybrid {
				htag = fmt.Sprintf("%s/fine%d", tag, s.From)
			}
			for i, h := range b.hoistedRotations(outs[s.From], level, s.Amounts, htag) {
				outs[s.From+s.Amounts[i]] = h
			}
			continue
		}
		kind := "minks"
		if mode == RotHybrid {
			kind = "coarse"
		}
		for _, a := range s.Amounts {
			outs[s.From+a] = b.HRot(outs[s.From], level, a, fmt.Sprintf("%s/%s%d", tag, kind, s.From+a))
		}
	}
	return outs
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

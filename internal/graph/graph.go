// Package graph defines the FHE operator dataflow IR that the CROPHE
// scheduler optimises and the cycle simulator executes. Nodes are the
// primitive operators of §II (element-wise ops, BConv matrix multiplies,
// evk inner products, NTT/iNTT — whole or four-step-decomposed —
// automorphisms, twiddle multiplies and transposes); edges carry either
// intermediate ciphertext tensors or auxiliary constant data (evks, BConv
// matrices, plaintexts), the two data classes whose reuse §V-A pipelines
// and shares.
package graph

import (
	"fmt"
	"sync/atomic"
)

// OpKind enumerates the primitive FHE operator types.
type OpKind int

// Primitive operator kinds.
const (
	OpEWAdd     OpKind = iota // element-wise addition/subtraction
	OpEWMul                   // element-wise multiplication
	OpBConv                   // base conversion (matrix multiply with constant)
	OpInP                     // inner product with evk along the digit dim
	OpNTT                     // whole negacyclic NTT (log N ▷ N loop nest)
	OpINTT                    // whole inverse NTT
	OpNTTCol                  // four-step column (i)NTT: N1 independent length-N2 transforms
	OpNTTRow                  // four-step row (i)NTT: N2 independent length-N1 transforms
	OpTwiddle                 // element-wise twiddle multiply of the four-step NTT
	OpTranspose               // on-chip data transposition (transpose unit)
	OpAutomorph               // coefficient permutation i → i·5^r
	OpRescale                 // per-limb rescale arithmetic
	OpConst                   // source of auxiliary constant data (evk, BConv matrix, plaintext)
	OpInput                   // external ciphertext input
	OpOutput                  // external ciphertext output sink
)

var kindNames = map[OpKind]string{
	OpEWAdd: "ew-add", OpEWMul: "ew-mul", OpBConv: "bconv", OpInP: "inp",
	OpNTT: "ntt", OpINTT: "intt", OpNTTCol: "ntt-col", OpNTTRow: "ntt-row",
	OpTwiddle: "twiddle", OpTranspose: "transpose", OpAutomorph: "automorph",
	OpRescale: "rescale", OpConst: "const", OpInput: "input", OpOutput: "output",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsCompute reports whether the kind performs work on PEs (vs being a
// graph-structural source/sink).
func (k OpKind) IsCompute() bool {
	return k != OpConst && k != OpInput && k != OpOutput
}

// BreaksOrientation reports whether the operator needs all N slots of a
// limb before producing output — the orientation switches of MAD/§V-B
// that terminate fine-grained pipelines. The four-step column/row NTTs do
// NOT break orientation (that is the point of the decomposition); the
// transpose between them is handled by the dedicated transpose unit.
func (k OpKind) BreaksOrientation() bool {
	switch k {
	case OpNTT, OpINTT, OpAutomorph, OpTranspose:
		return true
	}
	return false
}

// Tensor describes the shape of data on an edge: Digits × Limbs × N words.
type Tensor struct {
	Digits int // β dimension (1 when not digit-decomposed)
	Limbs  int // ℓ+1 (or α+ℓ+1 after ModUp)
	N      int // slot/coefficient dimension
}

// Elems returns the element count.
func (t Tensor) Elems() int64 {
	d := t.Digits
	if d == 0 {
		d = 1
	}
	return int64(d) * int64(t.Limbs) * int64(t.N)
}

// Bytes returns the footprint at the given word size.
func (t Tensor) Bytes(wordBytes float64) float64 {
	return float64(t.Elems()) * wordBytes
}

// DataClass distinguishes the two reuse classes of §V-A.
type DataClass int

// Edge data classes.
const (
	Intermediate DataClass = iota // ciphertext data pipelined producer→consumer
	Auxiliary                     // constant data shared among same-type operators
)

// Edge is a producer→consumer data dependency.
type Edge struct {
	From, To *Node
	Shape    Tensor
	Class    DataClass
	// AuxID identifies identical auxiliary data (e.g. the evk for
	// rotation amount r); operators consuming the same AuxID can share
	// one fetch. Empty for intermediates.
	AuxID string
}

// Node is one operator instance.
type Node struct {
	ID   int
	Kind OpKind
	Name string // human-readable role, e.g. "modup-bconv[d=2]"
	// Out is the output tensor shape of the operator.
	Out Tensor
	// In/OutEdges are populated by the Graph builder.
	InEdges  []*Edge
	OutEdges []*Edge
	// SubNTTLen is the transform length for NTT-family ops (N for whole
	// transforms, N1/N2 for decomposed parts).
	SubNTTLen int
	// BConvWidth is the source-limb count α of a BConv.
	BConvWidth int
}

// ModMuls estimates the modular-multiplication load of the node — the
// currency of the PE-allocation rule (§IV-B: PEs proportional to
// computational load).
func (n *Node) ModMuls() int64 {
	e := n.Out.Elems()
	switch n.Kind {
	case OpEWAdd:
		return e / 4 // adds are ~4× cheaper than muls on the lane datapath
	case OpEWMul, OpTwiddle:
		return e
	case OpBConv:
		return e * int64(n.BConvWidth)
	case OpInP:
		d := n.InEdges[0].Shape.Digits
		if d == 0 {
			d = 1
		}
		return e * int64(d)
	case OpNTT, OpINTT, OpNTTCol, OpNTTRow:
		l := n.SubNTTLen
		if l < 2 {
			l = n.Out.N
		}
		logL := int64(0)
		for v := l; v > 1; v >>= 1 {
			logL++
		}
		return e / 2 * logL // N/2·logN butterflies, 1 mul each
	case OpRescale:
		return 2 * e
	case OpAutomorph, OpTranspose:
		return 0 // pure data movement
	default:
		return 0
	}
}

// MoveElems returns the element-movement volume for data-movement ops.
func (n *Node) MoveElems() int64 {
	switch n.Kind {
	case OpAutomorph, OpTranspose:
		return n.Out.Elems()
	}
	return 0
}

// Graph is a DAG of operator nodes. A graph is built by AddNode, Connect
// and ConnectAux and is read-only once its decomposition has been taken:
// Decomposed computes it on first use and hands the cached graph to
// every later caller. The builders panic on a graph in that state. A
// graph is shared by pointer between every workload and scheduler that
// uses it, and the scheduler merges the searches of one call by that
// pointer, so no pass may change a graph once it has been handed out.
type Graph struct {
	Nodes []*Node
	nexts int

	sealed     atomic.Bool // the decomposition has been taken, or g is one
	decomposed atomic.Pointer[Graph]
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// mustBeOpen panics if g is sealed: its cached decomposition would no
// longer describe it.
func (g *Graph) mustBeOpen(op, name string) {
	if g.sealed.Load() {
		panic(fmt.Sprintf("graph: %s %q on a sealed graph of %d nodes (its decomposition has been taken)",
			op, name, len(g.Nodes)))
	}
}

// AddNode appends a node, assigning its ID.
func (g *Graph) AddNode(kind OpKind, name string, out Tensor) *Node {
	g.mustBeOpen("AddNode", name)
	n := &Node{ID: g.nexts, Kind: kind, Name: name, Out: out}
	g.nexts++
	g.Nodes = append(g.Nodes, n)
	return n
}

// Connect adds an intermediate edge from producer to consumer, shaped by
// the producer's output.
func (g *Graph) Connect(from, to *Node) *Edge {
	g.mustBeOpen("Connect into", to.Name)
	e := &Edge{From: from, To: to, Shape: from.Out, Class: Intermediate}
	from.OutEdges = append(from.OutEdges, e)
	to.InEdges = append(to.InEdges, e)
	return e
}

// ConnectAux adds an auxiliary edge carrying constant data identified by
// auxID.
func (g *Graph) ConnectAux(from, to *Node, auxID string) *Edge {
	g.mustBeOpen("ConnectAux into", to.Name)
	e := &Edge{From: from, To: to, Shape: from.Out, Class: Auxiliary, AuxID: auxID}
	from.OutEdges = append(from.OutEdges, e)
	to.InEdges = append(to.InEdges, e)
	return e
}

// ComputeNodes returns the nodes that run on PEs, in topological order.
func (g *Graph) ComputeNodes() []*Node {
	topo := g.Topological()
	out := make([]*Node, 0, len(topo))
	for _, n := range topo {
		if n.Kind.IsCompute() {
			out = append(out, n)
		}
	}
	return out
}

// Topological returns a deterministic topological ordering (Kahn's
// algorithm emitting the smallest-ID ready node first). It panics on
// cycles, which would be a builder bug; TopologicalPrefix reports them.
func (g *Graph) Topological() []*Node {
	out := g.TopologicalPrefix()
	if len(out) != len(g.Nodes) {
		panic("graph: cycle detected")
	}
	return out
}

// TopologicalPrefix is Topological without the cycle check: it returns
// the nodes Kahn's algorithm orders, which are all of g's nodes exactly
// when g has no cycle.
//
// Node IDs are dense — AddNode assigns 0, 1, 2, … — so per-node state
// here and in the other graph passes lives in slices indexed by ID.
func (g *Graph) TopologicalPrefix() []*Node {
	indeg := make([]int, len(g.Nodes))
	var ready idHeap
	for _, n := range g.Nodes {
		indeg[n.ID] = len(n.InEdges)
		if indeg[n.ID] == 0 {
			ready.push(n)
		}
	}
	out := make([]*Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		n := ready.pop()
		out = append(out, n)
		for _, e := range n.OutEdges {
			indeg[e.To.ID]--
			if indeg[e.To.ID] == 0 {
				ready.push(e.To)
			}
		}
	}
	return out
}

// idHeap is a binary min-heap of nodes keyed by ID: the ready set of
// Kahn's algorithm with smallest-ID-first tie-breaking.
type idHeap []*Node

func (h *idHeap) push(n *Node) {
	*h = append(*h, n)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].ID <= q[i].ID {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *idHeap) pop() *Node {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < len(q) && q[l].ID < q[m].ID {
			m = l
		}
		if r := 2*i + 2; r < len(q) && q[r].ID < q[m].ID {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// TotalModMuls sums the modular-multiplication load over all nodes.
func (g *Graph) TotalModMuls() int64 {
	var total int64
	for _, n := range g.Nodes {
		total += n.ModMuls()
	}
	return total
}

// Stats summarises a graph for reports.
type Stats struct {
	Nodes       int
	ComputeOps  int
	ModMuls     int64
	InterBytes  float64 // intermediate edge traffic at 8-byte words
	AuxBytes    float64 // unique auxiliary data (deduplicated by AuxID)
	KindCounts  map[OpKind]int
	UniqueAuxes int
}

// Summarise computes Stats at the given word size.
func (g *Graph) Summarise(wordBytes float64) Stats {
	s := Stats{KindCounts: make(map[OpKind]int)}
	seenAux := map[string]bool{}
	for _, n := range g.Nodes {
		s.Nodes++
		if n.Kind.IsCompute() {
			s.ComputeOps++
		}
		s.KindCounts[n.Kind]++
		s.ModMuls += n.ModMuls()
		for _, e := range n.OutEdges {
			switch e.Class {
			case Intermediate:
				if e.From.Kind.IsCompute() && e.To.Kind.IsCompute() {
					s.InterBytes += e.Shape.Bytes(wordBytes)
				}
			case Auxiliary:
				if !seenAux[e.AuxID] {
					seenAux[e.AuxID] = true
					s.AuxBytes += e.Shape.Bytes(wordBytes)
					s.UniqueAuxes++
				}
			}
		}
	}
	return s
}

package graph

// DecomposeNTTs returns a copy of the graph in which every whole NTT/iNTT
// node is replaced by its four-step decomposition (§V-B / Figure 7):
//
//	col-(i)NTT → twiddle ⊗ → transpose → row-(i)NTT
//
// The column and row parts have N1 (resp. N2) independent sub-transforms
// and therefore stream — they no longer break orientation — while the
// transpose runs on the dedicated transpose unit. split chooses N = N1×N2
// for a given N; a nil split uses the balanced power-of-two split.
func DecomposeNTTs(src *Graph, split func(n int) (n1, n2 int)) *Graph {
	if split == nil {
		split = BalancedSplit
	}
	dst := New()
	// head/tail map an original node's ID to its replacement chain ends.
	head := make([]*Node, len(src.Nodes))
	tail := make([]*Node, len(src.Nodes))

	for _, n := range src.Topological() {
		switch n.Kind {
		case OpNTT, OpINTT:
			n1, n2 := split(n.Out.N)
			col := dst.AddNode(OpNTTCol, n.Name+"/col", n.Out)
			col.SubNTTLen = n2
			tw := dst.AddNode(OpTwiddle, n.Name+"/twiddle", n.Out)
			tr := dst.AddNode(OpTranspose, n.Name+"/transpose", n.Out)
			row := dst.AddNode(OpNTTRow, n.Name+"/row", n.Out)
			row.SubNTTLen = n1
			dst.Connect(col, tw)
			dst.Connect(tw, tr)
			dst.Connect(tr, row)
			head[n.ID], tail[n.ID] = col, row
		default:
			c := dst.AddNode(n.Kind, n.Name, n.Out)
			c.SubNTTLen = n.SubNTTLen
			c.BConvWidth = n.BConvWidth
			head[n.ID], tail[n.ID] = c, c
		}
		for _, e := range n.InEdges {
			from := tail[e.From.ID]
			to := head[n.ID]
			var ne *Edge
			if e.Class == Auxiliary {
				ne = dst.ConnectAux(from, to, e.AuxID)
			} else {
				ne = dst.Connect(from, to)
			}
			ne.Shape = e.Shape
		}
	}
	return dst
}

// Decomposed returns DecomposeNTTs(g, nil). The rewrite runs once and
// every caller gets the same graph; both g and the result are sealed.
func (g *Graph) Decomposed() *Graph {
	if d := g.decomposed.Load(); d != nil {
		return d
	}
	g.sealed.Store(true)
	d := DecomposeNTTs(g, nil)
	d.sealed.Store(true)
	if !g.decomposed.CompareAndSwap(nil, d) {
		return g.decomposed.Load()
	}
	return d
}

// BalancedSplit returns the near-square power-of-two factorisation of n.
func BalancedSplit(n int) (int, int) {
	n1 := 1
	for n1*n1 < n {
		n1 <<= 1
	}
	if n1 > n {
		n1 = n
	}
	return n1, n / n1
}

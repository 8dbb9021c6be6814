package graph

import (
	"fmt"
	"strings"
)

// Snapshot renders every node of g (ID, kind, name, shape and
// attributes) and every edge (ends, class, shape and aux ID) in slice
// order, so two graphs, or one graph before and after a pass, compare
// as strings.
func Snapshot(g *Graph) string {
	var b strings.Builder
	for _, n := range g.Nodes {
		fmt.Fprintf(&b, "%d %v %q %+v %d %d in[", n.ID, n.Kind, n.Name, n.Out, n.SubNTTLen, n.BConvWidth)
		for _, e := range n.InEdges {
			fmt.Fprintf(&b, " %d", e.From.ID)
		}
		b.WriteString(" ]\n")
		for _, e := range n.OutEdges {
			fmt.Fprintf(&b, "\t-> %d %v %+v %q\n", e.To.ID, e.Class, e.Shape, e.AuxID)
		}
	}
	return b.String()
}

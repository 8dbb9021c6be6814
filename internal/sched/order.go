package sched

import (
	"cmp"
	"slices"

	"crophe/internal/graph"
)

// auxAffinityOrder returns the compute nodes of a graph in a topological
// order that greedily keeps consumers of the same auxiliary data adjacent.
// Any topological order is a legal schedule; this one maximises the
// spatial-sharing opportunities the group-formation DP can exploit: when
// several ready operators consume the same evk, they are emitted
// back-to-back and land in one group, so the evk is streamed once.
// A graph with a dependency cycle yields a *CycleError. The returned
// slice is the caller's; o's buffers are reused by the next call.
func (o *orderScratch) auxAffinityOrder(g *graph.Graph) ([]*graph.Node, error) {
	// Node IDs are dense (graph.AddNode), so in-degrees live in a slice
	// indexed by ID, and the ready set is kept sorted by ID: the score
	// scan below breaks ties towards the smallest ID.
	indeg := resized(o.indeg, len(g.Nodes))
	primary := resized(o.primary, len(g.Nodes))
	ready := o.ready[:0]
	for _, n := range g.Nodes {
		primary[n.ID] = primaryAux(n)
		indeg[n.ID] = len(n.InEdges)
		if indeg[n.ID] == 0 {
			ready = insertByID(ready, n)
		}
	}

	out := make([]*graph.Node, 0, len(g.Nodes))
	visited := 0
	lastAux := ""
	// recent holds the last few emitted nodes; consuming their outputs
	// keeps intermediate live ranges short (the loop-interleaving freedom
	// of the paper's scheduler: a baby-step ciphertext's PMults run
	// back-to-back instead of once per giant step).
	var recentBuf [recentLen]*graph.Node
	recent := recentBuf[:0]
	for len(ready) > 0 {
		idx, bestScore := 0, -1
		for i, n := range ready {
			score := 0
			for _, e := range n.InEdges {
				if e.Class != graph.Intermediate {
					continue
				}
				for _, r := range recent {
					if e.From == r {
						score += 2
					}
				}
			}
			if lastAux != "" && primary[n.ID] == lastAux {
				score++
			}
			if score > bestScore {
				bestScore, idx = score, i
			}
		}
		n := ready[idx]
		ready = append(ready[:idx], ready[idx+1:]...)
		visited++
		if n.Kind.IsCompute() {
			out = append(out, n)
			lastAux = primary[n.ID]
			if len(recent) == recentLen {
				copy(recent, recent[1:])
				recent = recent[:recentLen-1]
			}
			recent = append(recent, n)
		}
		for _, e := range n.OutEdges {
			indeg[e.To.ID]--
			if indeg[e.To.ID] == 0 {
				ready = insertByID(ready, e.To)
			}
		}
	}
	o.indeg, o.primary, o.ready = indeg, primary, ready
	// A well-formed operator graph is a DAG; leftovers mean a dependency
	// cycle, and silently scheduling only part of the workload would
	// corrupt every downstream cost model.
	if visited != len(g.Nodes) {
		return nil, &CycleError{Ordered: visited, Total: len(g.Nodes)}
	}
	return out, nil
}

// recentLen is how many of the last emitted nodes auxAffinityOrder
// favours the consumers of.
const recentLen = 6

// orderScratch is auxAffinityOrder's working memory.
type orderScratch struct {
	indeg   []int
	primary []string
	ready   []*graph.Node
}

// primaryAux returns the dominant auxiliary input of a node (the largest
// aux edge, preferring evks — the expensive streams worth co-scheduling).
func primaryAux(n *graph.Node) string {
	best := ""
	var bestBytes float64
	for _, e := range n.InEdges {
		if e.Class != graph.Auxiliary {
			continue
		}
		b := e.Shape.Bytes(8)
		if isEvk(e.AuxID) {
			b *= 1000 // always prefer the evk stream
		}
		if b > bestBytes {
			bestBytes = b
			best = e.AuxID
		}
	}
	return best
}

// insertByID inserts n into ns, which is sorted by ascending ID, keeping
// it sorted.
func insertByID(ns []*graph.Node, n *graph.Node) []*graph.Node {
	i, _ := slices.BinarySearchFunc(ns, n.ID, func(m *graph.Node, id int) int { return cmp.Compare(m.ID, id) })
	return slices.Insert(ns, i, n)
}

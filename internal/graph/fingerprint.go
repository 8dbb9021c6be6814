package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint returns a structural hash of the graph: operator kinds,
// shapes, attributes and the edge pattern, with node identity abstracted
// to topological positions and auxiliary identities to their shapes and
// sharing pattern. Two graphs with equal fingerprints describe the same
// computation up to renaming — the redundancy the paper's pre-partitioning
// merges to "search only once" (§V-D). The scheduler memoises segment
// schedules by (fingerprint, hardware, options).
//
// The value is computed once and cached on the graph, which seals it.
func (g *Graph) Fingerprint() string {
	if fp := g.fp.Load(); fp != nil {
		return *fp
	}
	g.sealed.Store(true)
	fp := g.fingerprint()
	if !g.fp.CompareAndSwap(nil, &fp) {
		return *g.fp.Load()
	}
	return fp
}

func (g *Graph) fingerprint() string {
	topo := g.Topological()
	pos := make([]int, len(g.Nodes)) // by node ID
	for i, n := range topo {
		pos[n.ID] = i
	}
	// Canonical aux numbering: order of first appearance in topo order.
	auxNum := map[string]int{}
	// The hash input is a stream of little-endian int64s, fed to the
	// hash in blocks.
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	writeInt := func(v int) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	var edges []*Edge
	for _, n := range topo {
		writeInt(int(n.Kind))
		writeInt(n.Out.Digits)
		writeInt(n.Out.Limbs)
		writeInt(n.Out.N)
		writeInt(n.SubNTTLen)
		writeInt(n.BConvWidth)
		// Edges sorted by (consumer position, class) for determinism.
		edges = append(edges[:0], n.OutEdges...)
		slices.SortFunc(edges, func(a, b *Edge) int {
			if c := cmp.Compare(pos[a.To.ID], pos[b.To.ID]); c != 0 {
				return c
			}
			return cmp.Compare(a.Class, b.Class)
		})
		writeInt(len(edges))
		for _, e := range edges {
			writeInt(pos[e.To.ID])
			writeInt(int(e.Class))
			writeInt(e.Shape.Digits)
			writeInt(e.Shape.Limbs)
			writeInt(e.Shape.N)
			if e.Class == Auxiliary {
				id, ok := auxNum[e.AuxID]
				if !ok {
					id = len(auxNum)
					auxNum[e.AuxID] = id
				}
				writeInt(id)
				// Distinguish evk-class aux (PRNG-halved) from others.
				if isEvkID(e.AuxID) {
					writeInt(1)
				} else {
					writeInt(0)
				}
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func isEvkID(id string) bool {
	return len(id) >= 4 && id[:4] == "evk:"
}

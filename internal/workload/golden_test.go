package workload

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

// goldenBuilderHash pins the builder's output: every node's ID, kind,
// name, shape and attributes, the order of nodes and in-edges, and aux
// IDs by name. A refactor of the builder must leave it
// unchanged; a change to the modelled graphs moves it on purpose, and
// then the new constant comes with the reason.
const goldenBuilderHash = 0x4f83adc5caa7e847

// TestBuilderGraphsGolden hashes every segment of every benchmark under
// every Table III parameter set and every rotation candidate, whole and
// four-step decomposed.
func TestBuilderGraphsGolden(t *testing.T) {
	h := fnv.New64a()
	for _, p := range arch.Table3() {
		for _, name := range Names() {
			f, _ := Lookup(name, p)
			for _, c := range candidates {
				w := f(c.mode, c.rHyb)
				for _, ws := range []*Workload{w, w.DecomposeNTTs()} {
					for _, s := range ws.Segments {
						hashString(h, s.Name)
						hashGraph(h, s.G)
					}
				}
			}
		}
	}
	if got := h.Sum64(); got != goldenBuilderHash {
		t.Fatalf("builder graphs hash %#016x, want %#016x", got, uint64(goldenBuilderHash))
	}
}

func hashGraph(h hash.Hash64, g *graph.Graph) {
	hashInt(h, len(g.Nodes))
	for _, n := range g.Nodes {
		hashInt(h, n.ID)
		hashInt(h, int(n.Kind))
		hashString(h, n.Name)
		hashTensor(h, n.Out)
		hashInt(h, n.SubNTTLen)
		hashInt(h, n.BConvWidth)
		hashInt(h, len(n.InEdges))
		for _, e := range n.InEdges {
			hashInt(h, e.From.ID)
			hashInt(h, int(e.Class))
			hashTensor(h, e.Shape)
			hashString(h, e.AuxID)
		}
	}
}

func hashTensor(h hash.Hash64, t graph.Tensor) {
	hashInt(h, t.Digits)
	hashInt(h, t.Limbs)
	hashInt(h, t.N)
}

func hashInt(h hash.Hash64, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func hashString(h hash.Hash64, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}

package graph

import (
	"strings"
	"sync"
	"testing"
)

func simpleChain(names [3]string, auxID string) *Graph {
	g := New()
	shape := Tensor{Digits: 1, Limbs: 3, N: 256}
	a := g.AddNode(OpEWMul, names[0], shape)
	b := g.AddNode(OpNTT, names[1], shape)
	b.SubNTTLen = 256
	c := g.AddNode(OpEWAdd, names[2], shape)
	evk := g.AddNode(OpConst, "k", Tensor{Digits: 2, Limbs: 5, N: 256})
	g.Connect(a, b)
	g.Connect(b, c)
	g.ConnectAux(evk, c, auxID)
	return g
}

// mustPanic runs f and checks it panics with a message naming op.
func mustPanic(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, op) || !strings.Contains(msg, "sealed") {
			t.Errorf("%s on a sealed graph: recovered %v, want a panic naming it", op, r)
		}
	}()
	f()
}

func TestBuildersPanicOnSealedGraph(t *testing.T) {
	g := simpleChain([3]string{"a", "b", "c"}, "evk:r:l")
	g.Decomposed()
	a, c := g.Nodes[0], g.Nodes[2]
	mustPanic(t, "AddNode", func() { g.AddNode(OpEWAdd, "late", a.Out) })
	mustPanic(t, "Connect", func() { g.Connect(a, c) })
	mustPanic(t, "ConnectAux", func() { g.ConnectAux(g.Nodes[3], a, "evk:r:l") })
	if len(g.Nodes) != 4 || len(a.OutEdges) != 1 {
		t.Error("a sealed graph changed")
	}
	d := simpleChain([3]string{"a", "b", "c"}, "evk:r:l").Decomposed()
	mustPanic(t, "AddNode", func() { d.AddNode(OpEWAdd, "late", d.Nodes[0].Out) })
}

// TestDerivedValuesComputedOnce takes the rewrite of one graph from 8
// goroutines at once: every caller must get the same rewritten graph.
// Run it under -race.
func TestDerivedValuesComputedOnce(t *testing.T) {
	g := simpleChain([3]string{"a", "b", "c"}, "evk:r:l")
	const workers = 8
	decs := make([]*Graph, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			decs[k] = g.Decomposed()
		}(k)
	}
	wg.Wait()
	for k := range decs {
		if decs[k] != decs[0] {
			t.Fatalf("caller %d got a different rewrite", k)
		}
	}
	if Snapshot(decs[0]) != Snapshot(DecomposeNTTs(g, nil)) {
		t.Fatal("Decomposed differs from DecomposeNTTs(g, nil)")
	}
}

package graph

import (
	"strings"
	"sync"
	"testing"
)

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
	for _, take := range []struct {
		name string
		f    func(g *Graph)
	}{
		{"Fingerprint", func(g *Graph) { g.Fingerprint() }},
		{"Decomposed", func(g *Graph) { g.Decomposed() }},
	} {
		g := simpleChain([3]string{"a", "b", "c"}, "evk:r:l")
		take.f(g)
		a, c := g.Nodes[0], g.Nodes[2]
		mustPanic(t, "AddNode", func() { g.AddNode(OpEWAdd, "late", a.Out) })
		mustPanic(t, "Connect", func() { g.Connect(a, c) })
		mustPanic(t, "ConnectAux", func() { g.ConnectAux(g.Nodes[3], a, "evk:r:l") })
		if len(g.Nodes) != 4 || len(a.OutEdges) != 1 {
			t.Errorf("after %s: a sealed graph changed", take.name)
		}
	}
	d := simpleChain([3]string{"a", "b", "c"}, "evk:r:l").Decomposed()
	mustPanic(t, "AddNode", func() { d.AddNode(OpEWAdd, "late", d.Nodes[0].Out) })
}

// TestDerivedValuesComputedOnce takes the fingerprint and the rewrite
// of one graph from 8 goroutines at once: every caller must get the same
// values, and the same rewritten graph. Run it under -race.
func TestDerivedValuesComputedOnce(t *testing.T) {
	g := simpleChain([3]string{"a", "b", "c"}, "evk:r:l")
	const workers = 8
	fps := make([]string, workers)
	decs := make([]*Graph, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			decs[k] = g.Decomposed()
			fps[k] = g.Fingerprint()
		}(k)
	}
	wg.Wait()
	for k := range fps {
		if fps[k] != g.FreshFingerprint() || decs[k] != decs[0] {
			t.Fatalf("caller %d got a different fingerprint or rewrite", k)
		}
	}
	if decs[0].Fingerprint() != DecomposeNTTs(g, nil).Fingerprint() {
		t.Fatal("Decomposed differs from DecomposeNTTs(g, nil)")
	}
}

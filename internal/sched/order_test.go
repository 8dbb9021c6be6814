package sched

import (
	"errors"
	"strings"
	"testing"

	"crophe/internal/graph"
)

// Edge cases of the affinity ordering: degenerate graphs must come back
// intact, and cyclic inputs must be rejected with a typed error instead
// of silently scheduling a subset of the workload.

func mustOrder(t *testing.T, g *graph.Graph) []*graph.Node {
	t.Helper()
	out, err := new(orderScratch).auxAffinityOrder(g)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAffinityOrderEmptyGraph(t *testing.T) {
	if out := mustOrder(t, graph.New()); len(out) != 0 {
		t.Fatalf("empty graph ordered %d nodes", len(out))
	}
}

func TestAffinityOrderSingleNode(t *testing.T) {
	g := graph.New()
	n := g.AddNode(graph.OpEWMul, "only", graph.Tensor{Limbs: 1, N: 4})
	out := mustOrder(t, g)
	if len(out) != 1 || out[0] != n {
		t.Fatalf("single-node order wrong: %v", out)
	}
}

func TestAffinityOrderSkipsStructuralNodes(t *testing.T) {
	g := graph.New()
	in := g.AddNode(graph.OpInput, "in", graph.Tensor{Limbs: 1, N: 4})
	mul := g.AddNode(graph.OpEWMul, "mul", graph.Tensor{Limbs: 1, N: 4})
	out := g.AddNode(graph.OpOutput, "out", graph.Tensor{Limbs: 1, N: 4})
	g.Connect(in, mul)
	g.Connect(mul, out)
	order := mustOrder(t, g)
	if len(order) != 1 || order[0] != mul {
		t.Fatalf("want only the compute node, got %d nodes", len(order))
	}
}

func TestAffinityOrderCyclicInputIsError(t *testing.T) {
	g := graph.New()
	a := g.AddNode(graph.OpEWAdd, "a", graph.Tensor{Limbs: 1, N: 4})
	b := g.AddNode(graph.OpEWMul, "b", graph.Tensor{Limbs: 1, N: 4})
	g.Connect(a, b)
	g.Connect(b, a)
	_, err := new(orderScratch).auxAffinityOrder(g)
	if err == nil {
		t.Fatal("cyclic graph did not error")
	}
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CycleError, got %T: %v", err, err)
	}
	if ce.Ordered != 0 || ce.Total != 2 {
		t.Fatalf("cycle error counts wrong: %+v", ce)
	}
	if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

func TestAffinityOrderPartialCycleIsError(t *testing.T) {
	// A reachable prefix followed by a cycle: the order must not silently
	// return just the prefix.
	g := graph.New()
	head := g.AddNode(graph.OpEWAdd, "head", graph.Tensor{Limbs: 1, N: 4})
	a := g.AddNode(graph.OpEWMul, "a", graph.Tensor{Limbs: 1, N: 4})
	b := g.AddNode(graph.OpEWMul, "b", graph.Tensor{Limbs: 1, N: 4})
	g.Connect(head, a)
	g.Connect(a, b)
	g.Connect(b, a)
	out, err := new(orderScratch).auxAffinityOrder(g)
	if err == nil {
		t.Fatalf("partial cycle did not error (got %d nodes)", len(out))
	}
	var ce *CycleError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CycleError, got %T: %v", err, err)
	}
	if ce.Ordered != 1 || ce.Total != 3 {
		t.Fatalf("cycle error counts wrong: %+v", ce)
	}
}

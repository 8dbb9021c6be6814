package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

// candidate is one rotation structure the scheduler sweeps.
type candidate struct {
	mode RotMode
	rHyb int
}

// candidates are the five rotation structures of a CROPHE design.
var candidates = []candidate{{RotMinKS, 0}, {RotHoisted, 0}, {RotHybrid, 2}, {RotHybrid, 4}, {RotHybrid, 8}}

// bsgsSegments names the segments whose graph depends on the rotation
// structure; every other segment is rotation-invariant.
var bsgsSegments = map[string]bool{"c2s": true, "s2c": true, "helr-xw": true, "conv": true}

// freshBuilds builds each benchmark with a cache of its own, as the
// exported constructors do.
var freshBuilds = map[string]func(arch.ParamSet, RotMode, int) *Workload{
	"bootstrapping": Bootstrapping,
	"helr1024":      HELR,
	"resnet-20":     func(p arch.ParamSet, m RotMode, r int) *Workload { return ResNet(p, 20, m, r) },
	"resnet-110":    func(p arch.ParamSet, m RotMode, r int) *Workload { return ResNet(p, 110, m, r) },
}

// sameWorkload reports the first difference between two workloads,
// segment by segment: name, count, and every node's kind, name, shape,
// attributes and in-edges.
func sameWorkload(got, want *Workload) error {
	if got.Name != want.Name || got.Params != want.Params || got.DataParallel != want.DataParallel {
		return fmt.Errorf("header %s/%s/%d, want %s/%s/%d",
			got.Name, got.Params.Name, got.DataParallel, want.Name, want.Params.Name, want.DataParallel)
	}
	if len(got.Segments) != len(want.Segments) {
		return fmt.Errorf("%d segments, want %d", len(got.Segments), len(want.Segments))
	}
	for i, g := range got.Segments {
		w := want.Segments[i]
		if g.Name != w.Name || g.Count != w.Count {
			return fmt.Errorf("segment %d is %s×%d, want %s×%d", i, g.Name, g.Count, w.Name, w.Count)
		}
		if len(g.G.Nodes) != len(w.G.Nodes) {
			return fmt.Errorf("segment %s: %d nodes, want %d", g.Name, len(g.G.Nodes), len(w.G.Nodes))
		}
		for j, n := range g.G.Nodes {
			m := w.G.Nodes[j]
			if n.Kind != m.Kind || n.Name != m.Name || n.Out != m.Out || n.SubNTTLen != m.SubNTTLen || n.BConvWidth != m.BConvWidth {
				return fmt.Errorf("segment %s node %d: %v %q %v, want %v %q %v",
					g.Name, j, n.Kind, n.Name, n.Out, m.Kind, m.Name, m.Out)
			}
			if len(n.InEdges) != len(m.InEdges) {
				return fmt.Errorf("segment %s node %q: %d in-edges, want %d", g.Name, n.Name, len(n.InEdges), len(m.InEdges))
			}
			for k, e := range n.InEdges {
				f := m.InEdges[k]
				if e.From.ID != f.From.ID || e.Class != f.Class || e.Shape != f.Shape || e.AuxID != f.AuxID {
					return fmt.Errorf("segment %s node %q: in-edge %d differs", g.Name, n.Name, k)
				}
			}
		}
	}
	return nil
}

// TestFactoryMatchesFreshBuilds calls each Lookup factory with every
// candidate, twice, in a shuffled order and checks each result against
// a build that shares nothing.
func TestFactoryMatchesFreshBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range arch.Table3() {
		type call struct {
			name string
			c    candidate
		}
		factories := map[string]Factory{}
		var calls []call
		for _, name := range Names() {
			factories[name], _ = Lookup(name, p)
			for _, c := range candidates {
				calls = append(calls, call{name, c}, call{name, c})
			}
		}
		rng.Shuffle(len(calls), func(i, j int) { calls[i], calls[j] = calls[j], calls[i] })
		for _, c := range calls {
			got := factories[c.name](c.c.mode, c.c.rHyb)
			want := freshBuilds[c.name](p, c.c.mode, c.c.rHyb)
			if err := sameWorkload(got, want); err != nil {
				t.Fatalf("%s %s %v/%d: %v", p.Name, c.name, c.c.mode, c.c.rHyb, err)
			}
		}
	}
}

// TestFactorySharesInvariantSegments checks that one factory hands every
// candidate the same graph for each rotation-invariant segment, and its
// same four-step rewrite, while no other candidate's BSGS segment is the
// Min-KS graph.
func TestFactorySharesInvariantSegments(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name, testParams)
		ws := make([]*Workload, len(candidates))
		for i, c := range candidates {
			ws[i] = f(c.mode, c.rHyb)
		}
		first, firstDec := ws[0], ws[0].DecomposeNTTs()
		for i, w := range ws {
			dec := w.DecomposeNTTs()
			again := f(candidates[i].mode, candidates[i].rHyb)
			for j, s := range w.Segments {
				if again.Segments[j].G != s.G {
					t.Errorf("%s %v: segment %s rebuilt on a repeated call", name, candidates[i], s.Name)
				}
				if s.G.Decomposed() != dec.Segments[j].G {
					t.Errorf("%s %v: segment %s decomposed twice", name, candidates[i], s.Name)
				}
				shared := s.G == first.Segments[j].G
				if bsgsSegments[s.Name] {
					if i > 0 && shared {
						t.Errorf("%s %v: BSGS segment %s shares the Min-KS graph", name, candidates[i], s.Name)
					}
					continue
				}
				if !shared || dec.Segments[j].G != firstDec.Segments[j].G {
					t.Errorf("%s %v: invariant segment %s not shared", name, candidates[i], s.Name)
				}
			}
		}
	}
}

// TestFactoryHybridStrideAtLeastN1IsHoisting checks that hybrid rotation
// with r_Hyb = 8, the n1 of every BSGS segment under the Table III
// parameter sets, gets the Hoisting graph of every segment: its baby-step
// plan is Hoisting's.
func TestFactoryHybridStrideAtLeastN1IsHoisting(t *testing.T) {
	for _, p := range arch.Table3() {
		for _, name := range Names() {
			f, _ := Lookup(name, p)
			hyb, hoist := f(RotHybrid, 8), f(RotHoisted, 0)
			for j, s := range hyb.Segments {
				if s.G != hoist.Segments[j].G {
					t.Errorf("%s %s: segment %s of hybrid r_Hyb=8 is not the Hoisting graph", p.Name, name, s.Name)
				}
			}
		}
	}
}

// TestFactoryCallsOwnTheirSegments checks that editing one call's
// segments leaves the next call's unchanged: only graphs are shared.
func TestFactoryCallsOwnTheirSegments(t *testing.T) {
	f, _ := Lookup("resnet-20", testParams)
	w := f(RotHybrid, 4)
	for i := range w.Segments {
		w.Segments[i].Count = 999
	}
	w.Segments = w.Segments[:1]
	if err := sameWorkload(f(RotHybrid, 4), ResNet(testParams, 20, RotHybrid, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestFactoryConcurrentUse calls one factory from 8 goroutines, each
// walking the candidates in its own order and taking every rewrite, and
// checks they all got the same graph for each segment,
// and the same graphs as serial calls of a factory of their own. Run it
// under -race.
func TestFactoryConcurrentUse(t *testing.T) {
	f, _ := Lookup("helr1024", testParams)
	const workers = 8
	type result struct{ raw, dec []*graph.Graph }
	results := make([][]result, workers) // [worker][candidate]
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			results[k] = make([]result, len(candidates))
			for step := range candidates {
				i := (step + k) % len(candidates)
				w := f(candidates[i].mode, candidates[i].rHyb)
				var r result
				for _, s := range w.DecomposeNTTs().Segments {
					r.dec = append(r.dec, s.G)
				}
				for _, s := range w.Segments {
					r.raw = append(r.raw, s.G)
				}
				results[k][i] = r
			}
		}(k)
	}
	wg.Wait()
	for k := 1; k < workers; k++ {
		for i := range candidates {
			for j, g := range results[k][i].raw {
				if g != results[0][i].raw[j] || results[k][i].dec[j] != results[0][i].dec[j] {
					t.Fatalf("worker %d, candidate %v, segment %d: a different graph than worker 0's", k, candidates[i], j)
				}
			}
		}
	}
	serial, _ := Lookup("helr1024", testParams)
	for i, c := range candidates {
		got := f(c.mode, c.rHyb)
		for j, s := range got.Segments {
			if s.G != results[0][i].raw[j] {
				t.Fatalf("candidate %v, segment %s: a later call got a different graph", c, s.Name)
			}
		}
		if err := sameWorkload(got, serial(c.mode, c.rHyb)); err != nil {
			t.Fatalf("candidate %v: concurrent and serial builds differ: %v", c, err)
		}
	}
}

// TestFactoryBuildsKeysInParallel checks that one key's build does not
// hold up another's: the first build waits until the second has started,
// which a factory that builds under one lock never lets happen.
func TestFactoryBuildsKeysInParallel(t *testing.T) {
	c := newSegments(testParams)
	started := make(chan struct{})
	done := make(chan Segment)
	go func() {
		done <- c.segment(segmentKey{name: "a"}, 1, func(b *Builder) {
			<-started
			b.Input("a/in", 1)
		})
	}()
	go func() {
		done <- c.segment(segmentKey{name: "b"}, 1, func(b *Builder) {
			close(started)
			b.Input("b/in", 1)
		})
	}()
	for i := 0; i < 2; i++ {
		select {
		case s := <-done:
			if s.G == nil || len(s.G.Nodes) != 1 {
				t.Fatalf("segment %s: graph %v, want one input node", s.Name, s.G)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a segment build waited for another key's build")
		}
	}
}

// TestFactoryFailedBuildKeepsFailing checks that a segment whose build
// panicked is never handed out as a nil graph: later calls of its key
// panic too.
func TestFactoryFailedBuildKeepsFailing(t *testing.T) {
	c := newSegments(testParams)
	k := segmentKey{name: "broken"}
	for call := 0; call < 2; call++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("call %d of a key whose build panicked returned", call)
				}
			}()
			c.segment(k, 1, func(b *Builder) { panic("builder bug") })
		}()
	}
}

package mapper

import (
	"errors"
	"slices"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/noc"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

var testParams = arch.ParamSet{Name: "t", LogN: 12, L: 7, LBoot: 5, DNum: 4, Alpha: 2}

func scheduledSegment(t *testing.T) *sched.SegmentSchedule {
	t.Helper()
	b := workload.NewBuilder(testParams)
	in := b.Input("x", 5)
	out := b.KeySwitch(in, 5, "evk:t", "ks")
	b.Output(out)
	w := &workload.Workload{
		Name: "ks", Params: testParams, DataParallel: 1,
		Segments: []workload.Segment{{Name: "ks", G: b.G, Count: 1}},
	}
	s := sched.New(arch.CROPHE64, sched.DefaultOptions(sched.DataflowCROPHE)).Run(w)
	return &s.Segments[0]
}

func newPlacer(t *testing.T, w, h int, failedRows []int) *Placer {
	t.Helper()
	p, err := NewPlacer(w, h, failedRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// place places g with p and returns a copy that outlives p's next Place.
func place(t *testing.T, p *Placer, g *sched.GroupSchedule) Placement {
	t.Helper()
	pl, err := p.Place(g)
	if err != nil {
		t.Fatal(err)
	}
	out := Placement{
		PEs:       make([][]noc.Coord, len(pl.PEs)),
		Bands:     slices.Clone(pl.Bands),
		RowMap:    slices.Clone(pl.RowMap),
		Transfers: slices.Clone(pl.Transfers),
	}
	for i, pes := range pl.PEs {
		out.PEs[i] = slices.Clone(pes)
	}
	return out
}

func TestMapPlacesEveryNonTransposeOp(t *testing.T) {
	seg := scheduledSegment(t)
	p := newPlacer(t, 8, 8, nil)
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		pl := place(t, p, g)
		if len(pl.PEs) != len(g.Nodes) {
			t.Fatalf("group %d: %d placements for %d operators", gi, len(pl.PEs), len(g.Nodes))
		}
		for i, n := range g.Nodes {
			if n.Kind == graph.OpTranspose {
				continue
			}
			pes := pl.PEs[i]
			if len(pes) == 0 {
				t.Fatalf("node %s has no PEs", n.Name)
			}
			for _, c := range pes {
				if c.X < 0 || c.X >= 8 || c.Y < 0 || c.Y >= 8 {
					t.Fatalf("node %s placed off-mesh at %v", n.Name, c)
				}
			}
		}
	}
}

func TestMapValidation(t *testing.T) {
	if _, err := NewPlacer(0, 8, nil, 8); err == nil {
		t.Error("invalid mesh should fail")
	}
	if _, err := NewPlacer(8, -1, []int{0}, 8); err == nil {
		t.Error("invalid mesh should fail")
	}
	p := newPlacer(t, 8, 8, nil)
	if _, err := p.Place(&sched.GroupSchedule{}); err == nil {
		t.Error("empty group should fail")
	}
}

func TestTransposeSplitsBands(t *testing.T) {
	gr := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 4, N: 4096}
	col := gr.AddNode(graph.OpNTTCol, "col", shape)
	col.SubNTTLen = 64
	tw := gr.AddNode(graph.OpTwiddle, "tw", shape)
	tr := gr.AddNode(graph.OpTranspose, "tr", shape)
	row := gr.AddNode(graph.OpNTTRow, "row", shape)
	row.SubNTTLen = 64
	gr.Connect(col, tw)
	gr.Connect(tw, tr)
	gr.Connect(tr, row)

	g := &sched.GroupSchedule{
		Nodes:   []*graph.Node{col, tw, tr, row},
		PEAlloc: []int{8, 4, 1, 8},
	}
	pl := place(t, newPlacer(t, 8, 8, nil), g)
	if len(pl.Bands) != 2 {
		t.Fatalf("bands %d want 2 (split at transpose)", len(pl.Bands))
	}
	if !pl.Bands[0].LeftToRight || pl.Bands[1].LeftToRight {
		t.Fatal("band directions should alternate (Figure 4)")
	}
	if len(pl.PEs[2]) != 0 {
		t.Fatal("transpose should run on the transpose unit, not PEs")
	}
	// The post-transpose segment starts from the right edge.
	rowPEs := pl.PEs[3]
	if len(rowPEs) == 0 || rowPEs[0].X != 7 {
		t.Fatalf("post-transpose op should start at the right edge, got %v", rowPEs)
	}
}

func TestPlaceFindsTransfers(t *testing.T) {
	seg := scheduledSegment(t)
	p := newPlacer(t, 8, 8, nil)
	totalTransfers := 0
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		pl := place(t, p, g)
		totalTransfers += len(pl.Transfers)
		for _, x := range pl.Transfers {
			if x.Bytes <= 0 {
				t.Fatal("non-positive transfer")
			}
			// Every transfer is an intermediate edge between members.
			from, to := g.Nodes[x.From], g.Nodes[x.To]
			found := false
			for _, e := range from.OutEdges {
				found = found || (e.To == to && e.Class == graph.Intermediate && e.Shape.Bytes(8) == x.Bytes)
			}
			if !found {
				t.Fatalf("transfer %s→%s is not an intermediate edge", from.Name, to.Name)
			}
		}
	}
	if totalTransfers == 0 {
		t.Fatal("no transfers extracted from a keyswitch")
	}
}

func TestMapOversubscribedGroupScalesDown(t *testing.T) {
	// More requested PEs than the band holds: allocation must scale.
	gr := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 4, N: 4096}
	var nodes []*graph.Node
	var alloc []int
	for i := 0; i < 4; i++ {
		nodes = append(nodes, gr.AddNode(graph.OpEWMul, "m", shape))
		alloc = append(alloc, 10)
	}
	g := &sched.GroupSchedule{Nodes: nodes, PEAlloc: alloc}
	pl := place(t, newPlacer(t, 4, 2, nil), g) // only 8 PEs for 40 requested
	for i, pes := range pl.PEs {
		if len(pes) == 0 {
			t.Fatalf("scaled-down node %d lost all PEs", i)
		}
		if len(pes) != 2 {
			t.Fatalf("node %d holds %d PEs, want 10×8/40 = 2", i, len(pes))
		}
	}
}

func TestMapAvoidingSkipsFailedRows(t *testing.T) {
	seg := scheduledSegment(t)
	failed := []int{2, 5}
	bad := map[int]bool{2: true, 5: true}
	p := newPlacer(t, 8, 8, failed)
	for gi := range seg.Groups {
		pl := place(t, p, &seg.Groups[gi])
		for i, pes := range pl.PEs {
			for _, c := range pes {
				if bad[c.Y] {
					t.Fatalf("node %d placed on failed row %d", i, c.Y)
				}
				if c.X < 0 || c.X >= 8 || c.Y < 0 || c.Y >= 8 {
					t.Fatalf("node %d placed off-mesh at %v", i, c)
				}
			}
		}
		if pl.RowMap == nil {
			t.Fatal("avoiding placement has no row map")
		}
		// Virtual rows translate to the nearest surviving physical row;
		// ties go up.
		for v := 0; v < len(pl.RowMap); v++ {
			if bad[pl.PhysRow(v)] {
				t.Fatalf("virtual row %d maps to failed row %d", v, pl.PhysRow(v))
			}
		}
		if want := []int{0, 1, 1, 3, 4, 4, 6, 7}; !slices.Equal(pl.RowMap, want) {
			t.Fatalf("row map %v, want %v", pl.RowMap, want)
		}
	}
}

func TestMapAvoidingAllRowsFailedIsTypedError(t *testing.T) {
	if _, err := NewPlacer(8, 8, []int{0, 1, 2, 3, 4, 5, 6, 7}, 8); !errors.Is(err, ErrNoRows) {
		t.Fatalf("want ErrNoRows, got %v", err)
	}
	if _, err := NewPlacer(8, 8, []int{0, 1, 2, 3, 4, 5, 6}, 8); err != nil {
		t.Fatalf("one surviving row: %v", err)
	}
}

func TestMapAvoidingNilBadRowsIsIdentity(t *testing.T) {
	seg := scheduledSegment(t)
	g := &seg.Groups[0]
	a := place(t, newPlacer(t, 8, 8, nil), g)
	b := place(t, newPlacer(t, 8, 8, []int{}), g)
	if a.RowMap != nil || b.RowMap != nil {
		t.Fatal("healthy placements should have no row map")
	}
	for i, pes := range a.PEs {
		if !slices.Equal(b.PEs[i], pes) {
			t.Fatalf("node %d placement differs", g.Nodes[i].ID)
		}
	}
}

// TestPlacerReuseMatchesFresh checks that a placer's reused buffers carry
// nothing from one group to the next: placing every group of a segment
// in turn, twice over, gives what a fresh placer gives for each.
func TestPlacerReuseMatchesFresh(t *testing.T) {
	seg := scheduledSegment(t)
	for _, failed := range [][]int{nil, {1, 6}} {
		reused := newPlacer(t, 8, 8, failed)
		for pass := 0; pass < 2; pass++ {
			for gi := range seg.Groups {
				g := &seg.Groups[gi]
				got := place(t, reused, g)
				want := place(t, newPlacer(t, 8, 8, failed), g)
				if !slices.EqualFunc(got.PEs, want.PEs, slices.Equal) ||
					!slices.Equal(got.Bands, want.Bands) ||
					!slices.Equal(got.Transfers, want.Transfers) {
					t.Fatalf("failed rows %v pass %d group %d: reused placer differs from a fresh one", failed, pass, gi)
				}
			}
		}
	}
}

// TestPlaceSegmentMatchesCellWalk checks the arithmetic cell assignment
// against an explicit column-major walk of each band's cells, in both
// directions, on healthy and faulted meshes, and with more requested PEs
// than a band holds, so that the walk wraps.
func TestPlaceSegmentMatchesCellWalk(t *testing.T) {
	gr := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 4, N: 4096}
	var nodes, plain []*graph.Node
	var alloc []int
	for i := 0; i < 11; i++ {
		kind := graph.OpEWMul
		if i == 3 || i == 7 || i == 8 {
			kind = graph.OpTranspose
		}
		nodes = append(nodes, gr.AddNode(kind, "m", shape))
		alloc = append(alloc, 1+i%3)
	}
	for i := 0; i < 7; i++ {
		plain = append(plain, gr.AddNode(graph.OpEWMul, "p", shape))
	}
	const w = 5
	for _, h := range []int{1, 2, 5} {
		for _, failed := range [][]int{nil, {0}, {h - 1}} {
			if h == 1 && failed != nil {
				continue // no surviving row
			}
			p := newPlacer(t, w, h, failed)
			for _, g := range []*sched.GroupSchedule{
				{Nodes: nodes, PEAlloc: alloc},
				{Nodes: nodes},
				{Nodes: nodes[:3], PEAlloc: []int{7, 9, 11}},
				// Seven operators keep one PE each after the scale-down,
				// more than a one-row band of five holds: the walk wraps.
				{Nodes: plain, PEAlloc: alloc[:7]},
			} {
				pl := place(t, p, g)
				// Runs of non-transpose operators, one per band.
				var runs [][]int
				cur := []int{}
				for i, n := range g.Nodes {
					if n.Kind == graph.OpTranspose {
						if len(cur) > 0 {
							runs = append(runs, cur)
						}
						cur = []int{}
						continue
					}
					cur = append(cur, i)
				}
				if len(cur) > 0 {
					runs = append(runs, cur)
				}
				if len(runs) != len(pl.Bands) {
					t.Fatalf("h %d: %d runs, %d bands", h, len(runs), len(pl.Bands))
				}
				for r, band := range pl.Bands {
					var cells []noc.Coord
					for i := 0; i < w; i++ {
						x := i
						if !band.LeftToRight {
							x = w - 1 - i
						}
						for y := band.Row0; y < band.Row0+band.Rows; y++ {
							cells = append(cells, noc.Coord{X: x, Y: pl.PhysRow(y)})
						}
					}
					idx := 0
					for _, i := range runs[r] {
						for k, got := range pl.PEs[i] {
							if want := cells[idx%len(cells)]; got != want {
								t.Fatalf("h %d failed %v band %+v: node %d PE %d at %v, cell walk %v", h, failed, band, i, k, got, want)
							}
							idx++
						}
					}
					if idx == 0 {
						t.Fatalf("band %+v: nothing placed", band)
					}
				}
			}
		}
	}
}

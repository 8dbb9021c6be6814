package mapper

import (
	"errors"
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

func TestMapPlacesEveryNonTransposeOp(t *testing.T) {
	seg := scheduledSegment(t)
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		pl, err := Map(g, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			if n.Kind == graph.OpTranspose {
				continue
			}
			pes := pl.PEsOf[n.ID]
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
	g := &sched.GroupSchedule{}
	if _, err := Map(g, 8, 8); err == nil {
		t.Error("empty group should fail")
	}
	gr := graph.New()
	n := gr.AddNode(graph.OpEWMul, "m", graph.Tensor{Digits: 1, Limbs: 1, N: 8})
	g2 := &sched.GroupSchedule{Nodes: []*graph.Node{n}, PEAlloc: map[int]int{}}
	if _, err := Map(g2, 0, 8); err == nil {
		t.Error("invalid mesh should fail")
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
		PEAlloc: map[int]int{col.ID: 8, tw.ID: 4, tr.ID: 1, row.ID: 8},
	}
	pl, err := Map(g, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Bands) != 2 {
		t.Fatalf("bands %d want 2 (split at transpose)", len(pl.Bands))
	}
	if !pl.Bands[0].LeftToRight || pl.Bands[1].LeftToRight {
		t.Fatal("band directions should alternate (Figure 4)")
	}
	if _, placed := pl.PEsOf[tr.ID]; placed {
		t.Fatal("transpose should run on the transpose unit, not PEs")
	}
	// The post-transpose segment starts from the right edge.
	rowPEs := pl.PEsOf[row.ID]
	if len(rowPEs) == 0 || rowPEs[0].X != 7 {
		t.Fatalf("post-transpose op should start at the right edge, got %v", rowPEs)
	}
}

func TestBuildTraceTransfers(t *testing.T) {
	seg := scheduledSegment(t)
	tr, err := BuildTrace(seg, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Groups) != len(seg.Groups) {
		t.Fatalf("trace groups %d want %d", len(tr.Groups), len(seg.Groups))
	}
	totalTransfers := 0
	for _, tg := range tr.Groups {
		totalTransfers += len(tg.Transfers)
		for _, x := range tg.Transfers {
			if x.Bytes <= 0 {
				t.Fatal("non-positive transfer")
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
	alloc := map[int]int{}
	for i := 0; i < 4; i++ {
		n := gr.AddNode(graph.OpEWMul, "m", shape)
		nodes = append(nodes, n)
		alloc[n.ID] = 10
	}
	g := &sched.GroupSchedule{Nodes: nodes, PEAlloc: alloc}
	pl, err := Map(g, 4, 2) // only 8 PEs for 40 requested
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if len(pl.PEsOf[n.ID]) == 0 {
			t.Fatal("scaled-down node lost all PEs")
		}
	}
}

func TestMapAvoidingSkipsFailedRows(t *testing.T) {
	seg := scheduledSegment(t)
	bad := map[int]bool{2: true, 5: true}
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		pl, err := MapAvoiding(g, 8, 8, bad)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range g.Nodes {
			for _, c := range pl.PEsOf[n.ID] {
				if bad[c.Y] {
					t.Fatalf("node %s placed on failed row %d", n.Name, c.Y)
				}
				if c.X < 0 || c.X >= 8 || c.Y < 0 || c.Y >= 8 {
					t.Fatalf("node %s placed off-mesh at %v", n.Name, c)
				}
			}
		}
		if pl.RowMap == nil {
			t.Fatal("avoiding placement has no row map")
		}
		// Virtual rows translate to surviving physical rows.
		for v := 0; v < len(pl.RowMap); v++ {
			if bad[pl.PhysRow(v)] {
				t.Fatalf("virtual row %d maps to failed row %d", v, pl.PhysRow(v))
			}
		}
	}
}

func TestMapAvoidingAllRowsFailedIsTypedError(t *testing.T) {
	seg := scheduledSegment(t)
	bad := map[int]bool{}
	for y := 0; y < 8; y++ {
		bad[y] = true
	}
	_, err := MapAvoiding(&seg.Groups[0], 8, 8, bad)
	if !errors.Is(err, ErrNoRows) {
		t.Fatalf("want ErrNoRows, got %v", err)
	}
	if _, err := BuildTraceAvoiding(seg, 8, 8, 8, bad); !errors.Is(err, ErrNoRows) {
		t.Fatalf("BuildTraceAvoiding: want ErrNoRows, got %v", err)
	}
}

func TestMapAvoidingNilBadRowsIsIdentity(t *testing.T) {
	seg := scheduledSegment(t)
	g := &seg.Groups[0]
	a, err := Map(g, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MapAvoiding(g, 8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.RowMap != nil || b.RowMap != nil {
		t.Fatal("healthy placements should have no row map")
	}
	for id, pes := range a.PEsOf {
		if len(b.PEsOf[id]) != len(pes) {
			t.Fatalf("node %d placement differs", id)
		}
	}
}

// TestPlaceSegmentMatchesCellWalk checks the arithmetic cell assignment
// against an explicit column-major walk of the band's cells, in both
// directions and with more requested PEs than the band holds, so that
// the walk wraps.
func TestPlaceSegmentMatchesCellWalk(t *testing.T) {
	gr := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 4, N: 4096}
	var seg []*graph.Node
	alloc := map[int]int{}
	for i := 0; i < 7; i++ {
		n := gr.AddNode(graph.OpEWMul, "m", shape)
		seg = append(seg, n)
		alloc[n.ID] = 1 + i%3
	}
	const w = 5
	for _, band := range []Band{
		{Row0: 0, Rows: 3, LeftToRight: true},
		{Row0: 2, Rows: 2, LeftToRight: false},
		{Row0: 1, Rows: 1, LeftToRight: true},
		{Row0: 4, Rows: 1, LeftToRight: false},
	} {
		var cells []noc.Coord
		for i := 0; i < w; i++ {
			x := i
			if !band.LeftToRight {
				x = w - 1 - i
			}
			for y := band.Row0; y < band.Row0+band.Rows; y++ {
				cells = append(cells, noc.Coord{X: x, Y: y})
			}
		}
		p := &Placement{PEsOf: map[int][]noc.Coord{}}
		placeSegment(p, seg, alloc, band, w)
		idx := 0
		for _, n := range seg {
			for k, got := range p.PEsOf[n.ID] {
				if want := cells[idx%len(cells)]; got != want {
					t.Fatalf("band %+v: node %d PE %d at %v, cell walk %v", band, n.ID, k, got, want)
				}
				idx++
			}
		}
		if idx == 0 {
			t.Fatalf("band %+v: nothing placed", band)
		}
	}
}

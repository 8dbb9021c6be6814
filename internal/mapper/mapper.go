// Package mapper places scheduled operator groups onto the PE mesh
// following §IV-B: consecutive operators occupy PE columns left-to-right,
// operators after an on-chip transpose are placed right-to-left from the
// transpose unit, and multiple transposes split the array into horizontal
// bands sized by compute demand (Figure 4). The output placement drives
// the NoC model in the cycle simulator.
package mapper

import (
	"errors"
	"fmt"

	"crophe/internal/graph"
	"crophe/internal/noc"
	"crophe/internal/sched"
)

// ErrNoRows reports that every mesh row is failed — there is nowhere to
// place compute. Degraded-mode callers match it with errors.Is.
var ErrNoRows = errors.New("mapper: no usable PE rows")

// Placement maps each operator of a group to its PEs.
type Placement struct {
	PEsOf map[int][]noc.Coord // node ID → coordinates
	// Bands records the horizontal band split (row ranges), one entry
	// per transpose-separated segment. Band rows are logical: when
	// RowMap is non-nil some physical rows are failed, and RowMap
	// translates a logical row to the physical row serving it.
	Bands []Band
	// RowMap maps every logical mesh row to the physical row serving it:
	// the identity on surviving rows, the nearest surviving row for
	// failed ones (spare-row redundancy). nil means no failed rows.
	RowMap []int
}

// PhysRow translates a logical row to the physical mesh row serving it.
func (p *Placement) PhysRow(logical int) int {
	if p.RowMap == nil || logical < 0 || logical >= len(p.RowMap) {
		return logical
	}
	return p.RowMap[logical]
}

// Band is a horizontal slice of the mesh serving one transpose-separated
// segment of the pipeline.
type Band struct {
	Row0, Rows int
	// LeftToRight is false for segments placed after a transpose.
	LeftToRight bool
}

// MapAvoiding places a group on a W×H mesh and keeps work off failed
// mesh rows (nil badRows for a healthy chip). The group's PE allocation
// comes from the scheduler; nodes with zero allocation receive one PE.
// The logical placement — band split, direction walk, cell assignment —
// is computed on the full mesh exactly
// as for a healthy chip, then every cell on a failed row is remapped to
// its nearest surviving row (spare-row redundancy). Keeping the logical
// geometry fault-independent matters for graceful degradation: each
// additional failed row only concentrates load onto the survivors,
// instead of re-rolling the band split and rebalancing link hotspots by
// luck. With every row failed it returns an error matching ErrNoRows.
func MapAvoiding(group *sched.GroupSchedule, w, h int, badRows map[int]bool) (*Placement, error) {
	if len(badRows) == 0 {
		return mapOnMesh(group, w, h)
	}
	anyLive := false
	for y := 0; y < h; y++ {
		if !badRows[y] {
			anyLive = true
			break
		}
	}
	if !anyLive {
		return nil, fmt.Errorf("mapper: all %d mesh rows failed: %w", h, ErrNoRows)
	}
	p, err := mapOnMesh(group, w, h)
	if err != nil {
		return nil, err
	}
	remap := make([]int, h)
	for y := 0; y < h; y++ {
		remap[y] = nearestLiveRow(y, h, badRows)
	}
	for _, pes := range p.PEsOf {
		for i := range pes {
			pes[i].Y = remap[pes[i].Y]
		}
	}
	p.RowMap = remap
	return p, nil
}

// nearestLiveRow returns the surviving row closest to y (ties go up, the
// fixed order that keeps degraded placements deterministic).
func nearestLiveRow(y, h int, bad map[int]bool) int {
	if !bad[y] {
		return y
	}
	for d := 1; d < h; d++ {
		if y-d >= 0 && !bad[y-d] {
			return y - d
		}
		if y+d < h && !bad[y+d] {
			return y + d
		}
	}
	return y
}

func mapOnMesh(group *sched.GroupSchedule, w, h int) (*Placement, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("mapper: invalid mesh %dx%d", w, h)
	}
	nodes := group.Nodes
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mapper: empty group")
	}

	// Split the pipeline at transpose operators into segments; each
	// segment alternates direction (Figure 4).
	var segments [][]*graph.Node
	cur := []*graph.Node{}
	for _, n := range nodes {
		if n.Kind == graph.OpTranspose {
			if len(cur) > 0 {
				segments = append(segments, cur)
			}
			cur = []*graph.Node{}
			continue // the transpose itself runs on the transpose unit
		}
		cur = append(cur, n)
	}
	if len(cur) > 0 {
		segments = append(segments, cur)
	}
	if len(segments) == 0 {
		// Group of only transposes: nothing to place on PEs.
		return &Placement{PEsOf: map[int][]noc.Coord{}}, nil
	}

	// Band heights proportional to segment loads.
	loads := make([]float64, len(segments))
	var total float64
	for i, seg := range segments {
		for _, n := range seg {
			loads[i] += float64(n.ModMuls()) + float64(n.MoveElems())*0.25
		}
		if loads[i] == 0 {
			loads[i] = 1
		}
		total += loads[i]
	}
	p := &Placement{PEsOf: map[int][]noc.Coord{}}
	row := 0
	for i, seg := range segments {
		rows := int(float64(h) * loads[i] / total)
		if rows < 1 {
			rows = 1
		}
		if i == len(segments)-1 || row+rows > h {
			rows = h - row
		}
		if rows < 1 {
			// Out of rows: stack remaining segments on the last band.
			rows = 1
			row = h - 1
		}
		band := Band{Row0: row, Rows: rows, LeftToRight: i%2 == 0}
		p.Bands = append(p.Bands, band)
		placeSegment(p, seg, group.PEAlloc, band, w)
		row += rows
		if row >= h {
			row = h - 1
		}
	}
	return p, nil
}

// placeSegment assigns columns of a band to the segment's operators in
// order, walking left→right or right→left.
func placeSegment(p *Placement, seg []*graph.Node, alloc map[int]int, band Band, w int) {
	// Total PEs available in the band.
	avail := band.Rows * w
	// Requested PEs, clamped into the band.
	want := 0
	req := make([]int, len(seg))
	for i, n := range seg {
		a := alloc[n.ID]
		if a < 1 {
			a = 1
		}
		req[i] = a
		want += a
	}
	if want > avail {
		// Scale down proportionally, keeping ≥1 each.
		scale := float64(avail) / float64(want)
		for i := range req {
			req[i] = int(float64(req[i]) * scale)
			if req[i] < 1 {
				req[i] = 1
			}
		}
	}

	// Walk cells column-major in the band, in the band's direction: the
	// j-th cell sits in the band's (j/Rows)-th column from its starting
	// edge, at row Row0 + j%Rows; requests past the band wrap around.
	idx := 0
	for i, n := range seg {
		pes := make([]noc.Coord, 0, req[i])
		for k := 0; k < req[i]; k++ {
			j := idx % avail
			x := j / band.Rows
			if !band.LeftToRight {
				x = w - 1 - x
			}
			pes = append(pes, noc.Coord{X: x, Y: band.Row0 + j%band.Rows})
			idx++
		}
		p.PEsOf[n.ID] = pes
	}
}

// Trace is the execution record the simulator consumes: per-group
// placements plus the data transfers between operators.
type Trace struct {
	Groups []TraceGroup
}

// TraceGroup couples one scheduled group with its placement and edges.
type TraceGroup struct {
	Group     *sched.GroupSchedule
	Placement *Placement
	// Transfers lists intra-group producer→consumer transfers.
	Transfers []Transfer
}

// Transfer is one logical data movement between placed operators.
type Transfer struct {
	FromID, ToID int
	Bytes        float64
}

// BuildTraceAvoiding maps every group of a segment schedule, with failed
// mesh rows excluded from every placement (see MapAvoiding), and
// extracts its transfers.
func BuildTraceAvoiding(seg *sched.SegmentSchedule, wordBytes float64, w, h int, badRows map[int]bool) (*Trace, error) {
	t := &Trace{Groups: make([]TraceGroup, 0, len(seg.Groups))}
	// groupOf[id] is 1 + the index of the last group holding node id, so
	// one slice serves every group's membership test.
	var groupOf []int
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		pl, err := MapAvoiding(g, w, h, badRows)
		if err != nil {
			return nil, fmt.Errorf("mapper: group %d: %w", gi, err)
		}
		tg := TraceGroup{Group: g, Placement: pl}
		for _, n := range g.Nodes {
			if n.ID >= len(groupOf) {
				groupOf = append(groupOf, make([]int, n.ID+1-len(groupOf))...)
			}
			groupOf[n.ID] = gi + 1
		}
		for _, n := range g.Nodes {
			for _, e := range n.OutEdges {
				if e.Class != graph.Intermediate || e.To.ID >= len(groupOf) || groupOf[e.To.ID] != gi+1 {
					continue
				}
				tg.Transfers = append(tg.Transfers, Transfer{
					FromID: n.ID, ToID: e.To.ID,
					Bytes: e.Shape.Bytes(wordBytes),
				})
			}
		}
		t.Groups = append(t.Groups, tg)
	}
	return t, nil
}

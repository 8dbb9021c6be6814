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

// Placement is one group's operators on the mesh plus the transfers
// between them. It belongs to the Placer that produced it and is
// overwritten by the Placer's next Place.
type Placement struct {
	// PEs[i] holds the coordinates of the group's Nodes[i]. Transposes
	// run on the transpose unit and hold none; every other operator
	// holds at least one.
	PEs [][]noc.Coord
	// Bands records the horizontal band split (row ranges), one entry
	// per transpose-separated segment. Band rows are logical: when
	// RowMap is non-nil some physical rows are failed, and RowMap
	// translates a logical row to the physical row serving it.
	Bands []Band
	// RowMap maps every logical mesh row to the physical row serving it:
	// the identity on surviving rows, the nearest surviving row for
	// failed ones (spare-row redundancy). nil means no failed rows.
	RowMap []int
	// Transfers lists the intra-group producer→consumer transfers in
	// producer order, then out-edge order.
	Transfers []Transfer
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

// Transfer is one logical data movement between placed operators. From
// and To are positions in the group's Nodes.
type Transfer struct {
	From, To int
	Bytes    float64
}

// Placer places groups on one W×H mesh, keeping work off its failed
// rows. The logical placement — band split, direction walk, cell
// assignment — is computed on the full mesh exactly as for a healthy
// chip, and every cell on a failed row is written to its nearest
// surviving row (spare-row redundancy). Keeping the logical geometry
// fault-independent matters for graceful degradation: each additional
// failed row only concentrates load onto the survivors, instead of
// re-rolling the band split and rebalancing link hotspots by luck.
//
// A Placer reuses its buffers from group to group, so placing allocates
// nothing once they have grown to the largest group seen. It is not safe
// for concurrent use.
type Placer struct {
	w, h      int
	wordBytes float64
	pl        Placement
	slab      []noc.Coord // backs every PEs entry
	runs      [][2]int    // transpose-separated runs of Nodes, [lo, hi)
	loads     []float64   // band load of each run
	req       []int       // PEs granted to each node, by position
	// member[id].gen == gen marks node id as a member of the group being
	// placed, at position member[id].pos; bumping gen empties the group.
	member []slot
	gen    uint32
}

type slot struct {
	gen uint32
	pos int32
}

// NewPlacer returns a placer for a w×h mesh whose failedRows (nil for a
// healthy chip) take no work, with transfer sizes in words of wordBytes.
// With every row failed it returns an error matching ErrNoRows.
func NewPlacer(w, h int, failedRows []int, wordBytes float64) (*Placer, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("mapper: invalid mesh %dx%d", w, h)
	}
	p := &Placer{w: w, h: h, wordBytes: wordBytes}
	if len(failedRows) == 0 {
		return p, nil
	}
	bad := make([]bool, h)
	for _, y := range failedRows {
		if y >= 0 && y < h {
			bad[y] = true
		}
	}
	rowMap := make([]int, h)
	for y := range rowMap {
		rowMap[y] = nearestLiveRow(y, bad)
		if bad[rowMap[y]] {
			return nil, fmt.Errorf("mapper: all %d mesh rows failed: %w", h, ErrNoRows)
		}
	}
	p.pl.RowMap = rowMap
	return p, nil
}

// nearestLiveRow returns the surviving row closest to y (ties go up, the
// fixed order that keeps degraded placements deterministic), or y itself
// when no row survives.
func nearestLiveRow(y int, bad []bool) int {
	if !bad[y] {
		return y
	}
	for d := 1; d < len(bad); d++ {
		if y-d >= 0 && !bad[y-d] {
			return y - d
		}
		if y+d < len(bad) && !bad[y+d] {
			return y + d
		}
	}
	return y
}

// Place places one group and finds its transfers. The group's PE
// allocation comes from the scheduler; operators without one receive
// one PE. The result is valid until the next call.
func (p *Placer) Place(group *sched.GroupSchedule) (*Placement, error) {
	nodes := group.Nodes
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mapper: empty group")
	}
	pl := &p.pl
	pl.PEs = resize(pl.PEs, len(nodes))
	clear(pl.PEs)
	pl.Bands = pl.Bands[:0]
	p.findTransfers(nodes)

	// Split the pipeline at transpose operators into runs; each run
	// alternates direction (Figure 4). The transpose itself runs on the
	// transpose unit.
	p.runs = p.runs[:0]
	lo := 0
	for i, n := range nodes {
		if n.Kind == graph.OpTranspose {
			if i > lo {
				p.runs = append(p.runs, [2]int{lo, i})
			}
			lo = i + 1
		}
	}
	if len(nodes) > lo {
		p.runs = append(p.runs, [2]int{lo, len(nodes)})
	}
	if len(p.runs) == 0 {
		// Group of only transposes: nothing to place on PEs.
		return pl, nil
	}

	// Band heights proportional to run loads.
	p.loads = resize(p.loads, len(p.runs))
	var total float64
	for i, r := range p.runs {
		p.loads[i] = 0
		for _, n := range nodes[r[0]:r[1]] {
			p.loads[i] += float64(n.ModMuls()) + float64(n.MoveElems())*0.25
		}
		if p.loads[i] == 0 {
			p.loads[i] = 1
		}
		total += p.loads[i]
	}
	h := p.h
	row := 0
	for i := range p.runs {
		rows := int(float64(h) * p.loads[i] / total)
		if rows < 1 {
			rows = 1
		}
		if i == len(p.runs)-1 || row+rows > h {
			rows = h - row
		}
		if rows < 1 {
			// Out of rows: stack remaining runs on the last band.
			rows = 1
			row = h - 1
		}
		pl.Bands = append(pl.Bands, Band{Row0: row, Rows: rows, LeftToRight: i%2 == 0})
		row += rows
		if row >= h {
			row = h - 1
		}
	}

	// Grant each operator its PEs, then cut them from one slab.
	p.req = resize(p.req, len(nodes))
	cells := 0
	for i, r := range p.runs {
		cells += p.grant(group.PEAlloc, r[0], r[1], pl.Bands[i].Rows*p.w)
	}
	p.slab = resize(p.slab, cells)
	off := 0
	for i, r := range p.runs {
		off = p.walk(r[0], r[1], pl.Bands[i], off)
	}
	return pl, nil
}

// grant sets req for the operators at positions [lo, hi), clamped into
// a band of avail PEs, and returns their total.
func (p *Placer) grant(alloc []int, lo, hi, avail int) int {
	want := 0
	for i := lo; i < hi; i++ {
		a := 1
		if alloc != nil && alloc[i] > 1 {
			a = alloc[i]
		}
		p.req[i] = a
		want += a
	}
	if want <= avail {
		return want
	}
	// Scale down proportionally, keeping ≥1 each.
	scale := float64(avail) / float64(want)
	sum := 0
	for i := lo; i < hi; i++ {
		p.req[i] = max(int(float64(p.req[i])*scale), 1)
		sum += p.req[i]
	}
	return sum
}

// walk assigns the band's cells to the operators at positions [lo, hi)
// in order, writing them to the slab from off, and returns the next
// offset. Cells go column-major in the band's direction: the j-th cell
// sits in the band's (j/Rows)-th column from its starting edge, at row
// Row0 + j%Rows; requests past the band wrap around.
func (p *Placer) walk(lo, hi int, band Band, off int) int {
	avail := band.Rows * p.w
	rowMap := p.pl.RowMap
	j := 0
	for i := lo; i < hi; i++ {
		pes := p.slab[off : off+p.req[i] : off+p.req[i]]
		for k := range pes {
			x := j / band.Rows
			if !band.LeftToRight {
				x = p.w - 1 - x
			}
			y := band.Row0 + j%band.Rows
			if rowMap != nil {
				y = rowMap[y]
			}
			pes[k] = noc.Coord{X: x, Y: y}
			if j++; j == avail {
				j = 0
			}
		}
		p.pl.PEs[i] = pes
		off += len(pes)
	}
	return off
}

// findTransfers lists the intermediate edges between members of the
// group, in producer order, then out-edge order.
func (p *Placer) findTransfers(nodes []*graph.Node) {
	p.gen++
	if p.gen == 0 { // wrapped: stale stamps could alias the new generation
		clear(p.member)
		p.gen = 1
	}
	maxID := 0
	for _, n := range nodes {
		maxID = max(maxID, n.ID)
	}
	if maxID >= len(p.member) {
		// Grow at least twofold, so a run of groups with rising node IDs
		// regrows the array only logarithmically often.
		p.member = append(p.member, make([]slot, max(maxID+1, 2*len(p.member))-len(p.member))...)
	}
	for i, n := range nodes {
		p.member[n.ID] = slot{gen: p.gen, pos: int32(i)}
	}
	tr := p.pl.Transfers[:0]
	for i, n := range nodes {
		for _, e := range n.OutEdges {
			if id := e.To.ID; e.Class != graph.Intermediate || id >= len(p.member) || p.member[id].gen != p.gen {
				continue
			}
			tr = append(tr, Transfer{From: i, To: int(p.member[e.To.ID].pos), Bytes: e.Shape.Bytes(p.wordBytes)})
		}
	}
	p.pl.Transfers = tr
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

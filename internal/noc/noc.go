// Package noc models the 2D mesh network-on-chip of the CROPHE
// accelerator (§IV-A): dimension-ordered (X-Y) routing of hop-by-hop
// packets between PEs, tree multicast for shared data, and per-link
// contention accounting. The simulator uses it to turn the mapper's data
// transfers into cycle counts; it replaces the paper's Orion-3-based
// model (see DESIGN.md).
//
// The mesh also carries a degraded-mode view for the fault-injection
// subsystem: individual links can be disabled (routing detours around
// them, deterministically) or slowed (their drain capacity scales down),
// so a simulated schedule reflects a partially failed interconnect.
package noc

import (
	"errors"
	"fmt"
	"slices"

	"crophe/internal/telemetry"
)

// ErrUnreachable reports that no route exists between two PEs once dead
// links are excluded. Callers match it with errors.Is.
var ErrUnreachable = errors.New("noc: destination unreachable")

// Coord is a PE position in the mesh.
type Coord struct{ X, Y int }

// Mesh is a W×H array of routers with bidirectional links.
type Mesh struct {
	W, H int
	// LinkBytesPerCycle is the payload capacity of one link per cycle.
	LinkBytesPerCycle float64
	// HopLatency is the per-hop router+wire latency in cycles.
	HopLatency int

	// load accumulates bytes per directed link, indexed by the link's
	// source PE (y*W+x) times linkSlots plus its direction slot. touched
	// lists, in first-touch order, the links used since the last Reset
	// (zero-byte sends included), and used marks them, so that Reset,
	// DrainCycles and EmitCounters cost O(links used).
	load    []float64
	used    []bool
	touched []int32
	// totalLoad is the running Σ over load, maintained at the update
	// sites in update order.
	totalLoad float64
	// sends counts routed transfers (unicasts plus multicast legs) since
	// the last Reset.
	sends int

	// charged stamps the links a multicast has already paid for with the
	// multicast's generation mcGen, so each call starts from an empty set
	// without clearing the slice.
	charged []uint32
	mcGen   uint32

	// dead marks directed links that are down (nil while none is);
	// routing detours around them. slow holds a capacity factor in (0, 1]
	// per slowed directed link, 0 for a link at full speed (nil while none
	// is slowed). nDead and nSlow count the marked directed links.
	dead         []bool
	slow         []float64
	nDead, nSlow int

	// trees caches, per source PE, the BFS predecessor tree over the
	// surviving links (nil until that source first routes around a dead
	// link): trees[src][v] is the PE before v on the detour from src, -1
	// when v is unreachable. DisableLink clears the cache.
	trees [][]int32
	queue []int32
}

// Link direction slots, in the byte order of the direction letters
// ('E' < 'L' < 'N' < 'S' < 'W'), so that ascending link indices walk the
// links in (y, x, direction) order. L is a PE's loopback port.
const (
	slotE = iota
	slotL
	slotN
	slotS
	slotW
	linkSlots
)

// slotDir maps a direction slot to its letter.
const slotDir = "ELNSW"

// NewMesh creates a mesh with the given dimensions and link capacity.
func NewMesh(w, h int, linkBytesPerCycle float64, hopLatency int) (*Mesh, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: mesh dimensions %dx%d invalid", w, h)
	}
	if linkBytesPerCycle <= 0 {
		return nil, fmt.Errorf("noc: link capacity must be positive")
	}
	if hopLatency < 1 {
		hopLatency = 1
	}
	n := w * h * linkSlots
	return &Mesh{
		W: w, H: h,
		LinkBytesPerCycle: linkBytesPerCycle,
		HopLatency:        hopLatency,
		load:              make([]float64, n),
		used:              make([]bool, n),
	}, nil
}

// PEIndex maps a linear PE id (row-major) to its coordinate.
func (m *Mesh) PEIndex(id int) Coord {
	return Coord{X: id % m.W, Y: id / m.W}
}

// Contains reports whether c is inside the mesh.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// pe returns the linear index y*W+x of a PE inside the mesh.
func (m *Mesh) pe(c Coord) int { return c.Y*m.W + c.X }

// step offsets in the deterministic E,W,S,N neighbour order of the BFS
// detour router.
var dirs = []struct {
	dx, dy int
	dir    byte
}{
	{1, 0, 'E'}, {-1, 0, 'W'}, {0, 1, 'S'}, {0, -1, 'N'},
}

// DisableLink marks the physical link leaving from in direction dir as
// down, in both directions. Routing detours around disabled links; loads
// already accumulated on them are kept (they were routed while the link
// was up).
func (m *Mesh) DisableLink(from Coord, dir byte) error {
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.dead == nil {
		m.dead = make([]bool, len(m.load))
	}
	for _, i := range [2]int{k, rev} {
		if !m.dead[i] {
			m.dead[i] = true
			m.nDead++
		}
	}
	clear(m.trees)
	return nil
}

// SlowLink scales the capacity of the physical link leaving from in
// direction dir (both directions) by factor in (0, 1].
func (m *Mesh) SlowLink(from Coord, dir byte, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("noc: slow-link factor %v outside (0, 1]", factor)
	}
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.slow == nil {
		m.slow = make([]float64, len(m.load))
	}
	for _, i := range [2]int{k, rev} {
		if m.slow[i] == 0 {
			m.nSlow++
		}
		m.slow[i] = factor
	}
	return nil
}

// linkPair validates a (coord, direction) link reference and returns the
// directed link's index plus its reverse's.
func (m *Mesh) linkPair(from Coord, dir byte) (int, int, error) {
	if !m.Contains(from) {
		return 0, 0, fmt.Errorf("noc: link source %v outside %dx%d mesh", from, m.W, m.H)
	}
	for _, d := range dirs {
		if d.dir != dir {
			continue
		}
		to := Coord{X: from.X + d.dx, Y: from.Y + d.dy}
		if !m.Contains(to) {
			return 0, 0, fmt.Errorf("noc: no %c link at %v (mesh edge)", dir, from)
		}
		return m.hop(m.pe(from), m.pe(to)), m.hop(m.pe(to), m.pe(from)), nil
	}
	return 0, 0, fmt.Errorf("noc: unknown link direction %q", string(dir))
}

// hop returns the index of the directed link between two adjacent PEs,
// given as linear indices. Vertical steps are tested first: on a
// one-column mesh a ±1 step is vertical.
func (m *Mesh) hop(from, to int) int {
	slot := slotW
	switch to - from {
	case m.W:
		slot = slotS
	case -m.W:
		slot = slotN
	case 1:
		slot = slotE
	}
	return from*linkSlots + slot
}

// DeadLinks returns the number of disabled physical links (undirected).
func (m *Mesh) DeadLinks() int { return m.nDead / 2 }

// SlowLinks returns the number of slowed physical links (undirected).
func (m *Mesh) SlowLinks() int { return m.nSlow / 2 }

// Route returns a path from src to dst, excluding src, including dst.
// With a healthy mesh this is the X-Y (dimension-ordered) route; with
// disabled links it is the deterministic shortest detour (BFS in fixed
// E,W,S,N neighbour order). It returns an error wrapping ErrUnreachable
// when dead links partition src from dst, and a validation error when an
// endpoint lies outside the mesh.
func (m *Mesh) Route(src, dst Coord) ([]Coord, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return nil, err
	}
	if m.nDead == 0 {
		return m.routeXY(src, dst), nil
	}
	if src == dst {
		return nil, nil
	}
	prev, err := m.detour(src, dst)
	if err != nil {
		return nil, err
	}
	s := m.pe(src)
	var path []Coord
	for v := m.pe(dst); v != s; v = int(prev[v]) {
		path = append(path, m.PEIndex(v))
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

func (m *Mesh) checkEndpoints(src, dst Coord) error {
	if !m.Contains(src) || !m.Contains(dst) {
		return fmt.Errorf("noc: route endpoints out of %dx%d mesh: %v -> %v", m.W, m.H, src, dst)
	}
	return nil
}

// routeXY is the dimension-ordered route of the healthy mesh.
func (m *Mesh) routeXY(src, dst Coord) []Coord {
	var path []Coord
	cur := src
	for cur.X != dst.X {
		if dst.X > cur.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		if dst.Y > cur.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path
}

// detour returns src's BFS predecessor tree over the surviving links,
// or an error wrapping ErrUnreachable when dst is not in it. The tree
// is built once per source and mesh fault state. A full BFS in the
// fixed E,W,S,N neighbour order sets every predecessor exactly as a
// BFS that stops at dst does, so each detour is the one a per-pair
// search finds; the fixed order makes it deterministic, which the
// bit-reproducible resilience sweeps rely on.
func (m *Mesh) detour(src, dst Coord) ([]int32, error) {
	s := m.pe(src)
	if m.trees == nil {
		m.trees = make([][]int32, m.W*m.H)
	}
	prev := m.trees[s]
	if prev == nil {
		prev = m.bfs(s)
		m.trees[s] = prev
	}
	if prev[m.pe(dst)] < 0 {
		return nil, fmt.Errorf("noc: %v -> %v with %d dead links: %w", src, dst, m.DeadLinks(), ErrUnreachable)
	}
	return prev, nil
}

func (m *Mesh) bfs(s int) []int32 {
	prev := make([]int32, m.W*m.H)
	for i := range prev {
		prev[i] = -1
	}
	prev[s] = int32(s)
	queue := append(m.queue[:0], int32(s))
	for head := 0; head < len(queue); head++ {
		cur := int(queue[head])
		x, y := cur%m.W, cur/m.W
		for _, d := range dirs {
			nx, ny := x+d.dx, y+d.dy
			if nx < 0 || nx >= m.W || ny < 0 || ny >= m.H {
				continue
			}
			next := ny*m.W + nx
			if m.dead[m.hop(cur, next)] || prev[next] >= 0 {
				continue
			}
			prev[next] = int32(cur)
			queue = append(queue, int32(next))
		}
	}
	m.queue = queue
	return prev
}

// Hops returns the Manhattan distance between two PEs (the fault-free
// path length; detours around dead links may be longer).
func (m *Mesh) Hops(src, dst Coord) int {
	dx := src.X - dst.X
	if dx < 0 {
		dx = -dx
	}
	dy := src.Y - dst.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Send accumulates a unicast transfer of the given bytes along the routed
// path and returns the head latency in cycles. A co-located transfer
// (src == dst, operators time-sharing one PE) is not free: the handoff
// serialises through the PE's local port at link bandwidth, modeled as a
// loopback link — without this, packing more operators onto fewer
// surviving PEs under row faults makes traffic evaporate.
func (m *Mesh) Send(src, dst Coord, bytes float64) (int, error) {
	prev, err := m.routeTree(src, dst)
	if err != nil {
		return 0, err
	}
	m.sends++
	if src == dst {
		m.addLoad(m.pe(src)*linkSlots+slotL, bytes)
		return 0, nil
	}
	return m.walk(src, dst, prev, bytes, false) * m.HopLatency, nil
}

// Multicast accumulates a tree multicast from src to all dsts: shared
// prefixes of the routes carry the payload once (§IV-A's multicast
// support). Returns the worst-case head latency.
func (m *Mesh) Multicast(src Coord, dsts []Coord, bytes float64) (int, error) {
	if m.charged == nil {
		m.charged = make([]uint32, len(m.load))
	}
	m.mcGen++
	if m.mcGen == 0 {
		clear(m.charged)
		m.mcGen = 1
	}
	worst := 0
	m.sends += len(dsts)
	for _, dst := range dsts {
		prev, err := m.routeTree(src, dst)
		if err != nil {
			return 0, err
		}
		if h := m.walk(src, dst, prev, bytes, true) * m.HopLatency; h > worst {
			worst = h
		}
	}
	return worst, nil
}

// routeTree validates a transfer's endpoints and returns the detour tree
// to walk from src, or nil when the X-Y route applies (a healthy mesh or
// a co-located transfer).
func (m *Mesh) routeTree(src, dst Coord) ([]int32, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return nil, err
	}
	if m.nDead == 0 || src == dst {
		return nil, nil
	}
	return m.detour(src, dst)
}

// walk charges bytes to every link of the route from src to dst — the
// X-Y route when prev is nil, else the detour in src's tree prev — and
// returns its hop count. With once set, a link this multicast already
// charged is skipped.
func (m *Mesh) walk(src, dst Coord, prev []int32, bytes float64, once bool) int {
	hops := 0
	if prev != nil {
		s := m.pe(src)
		for v := m.pe(dst); v != s; v = int(prev[v]) {
			m.charge(m.hop(int(prev[v]), v), bytes, once)
			hops++
		}
		return hops
	}
	cur := m.pe(src)
	for x := src.X; x != dst.X; hops++ {
		if dst.X > x {
			m.charge(cur*linkSlots+slotE, bytes, once)
			x, cur = x+1, cur+1
		} else {
			m.charge(cur*linkSlots+slotW, bytes, once)
			x, cur = x-1, cur-1
		}
	}
	for y := src.Y; y != dst.Y; hops++ {
		if dst.Y > y {
			m.charge(cur*linkSlots+slotS, bytes, once)
			y, cur = y+1, cur+m.W
		} else {
			m.charge(cur*linkSlots+slotN, bytes, once)
			y, cur = y-1, cur-m.W
		}
	}
	return hops
}

func (m *Mesh) charge(link int, bytes float64, once bool) {
	if once {
		if m.charged[link] == m.mcGen {
			return
		}
		m.charged[link] = m.mcGen
	}
	m.addLoad(link, bytes)
}

func (m *Mesh) addLoad(link int, bytes float64) {
	if !m.used[link] {
		m.used[link] = true
		m.touched = append(m.touched, int32(link))
	}
	m.load[link] += bytes
	m.totalLoad += bytes
}

// DrainCycles returns the cycles needed to drain the accumulated traffic:
// the busiest link bounds throughput (serialisation), which is how
// contention manifests in a wormhole mesh. Slowed links drain at their
// reduced capacity.
func (m *Mesh) DrainCycles() float64 {
	var worst float64
	for _, i := range m.touched {
		cap := m.LinkBytesPerCycle
		if m.slow != nil && m.slow[i] != 0 {
			cap *= m.slow[i]
		}
		if c := m.load[i] / cap; c > worst {
			worst = c
		}
	}
	return worst
}

// TotalBytesHops returns Σ bytes×links-traversed, the energy/utilisation
// proxy.
func (m *Mesh) TotalBytesHops() float64 {
	return m.totalLoad
}

// Utilization returns the mean link utilisation over the given cycle span.
func (m *Mesh) Utilization(cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	links := float64(m.numLinks())
	return m.TotalBytesHops() / (links * m.LinkBytesPerCycle * cycles)
}

func (m *Mesh) numLinks() int {
	// Directed links: horizontal 2·(W-1)·H, vertical 2·W·(H-1).
	return 2*(m.W-1)*m.H + 2*m.W*(m.H-1)
}

// Reset clears accumulated loads, keeping any link-fault state.
func (m *Mesh) Reset() {
	for _, i := range m.touched {
		m.load[i] = 0
		m.used[i] = false
	}
	m.touched = m.touched[:0]
	m.totalLoad = 0
	m.sends = 0
}

// Sends returns the number of routed transfers since the last Reset.
func (m *Mesh) Sends() int { return m.sends }

// EmitCounters adds the accumulated per-link occupancy (bytes routed over
// each directed link since the last Reset) plus aggregate routing
// counters to the collector. Links walk in a sorted (y, x, direction)
// order so repeated emissions are deterministic. Call before Reset; loads
// are deltas, so emitting once per drained window accumulates correctly.
func (m *Mesh) EmitCounters(c *telemetry.Collector) {
	if !c.Enabled() {
		return
	}
	// Link indices ascend in (y, x, direction) order. Sum bytes×hops in
	// that order, not via TotalBytesHops, whose update order differs: the
	// float sum's last bits would break the byte-identical trace.
	slices.Sort(m.touched)
	var bytesHops float64
	for _, i := range m.touched {
		pe := int(i) / linkSlots
		c.EmitCounter(fmt.Sprintf("noc/link/%d,%d/%c", pe%m.W, pe/m.W, slotDir[int(i)%linkSlots]), m.load[i])
		bytesHops += m.load[i]
	}
	c.EmitCounter("noc/bytes_hops", bytesHops)
	c.EmitCounter("noc/sends", float64(m.sends))
}

package noc

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crophe/internal/telemetry"
)

// refMesh is the reference the Mesh is checked against: a fresh
// early-exit BFS per routed pair and map-keyed link accounting, the
// straightforward model the dense Mesh must reproduce bit for bit.
type refMesh struct {
	w, h              int
	linkBytesPerCycle float64
	hopLatency        int
	linkLoad          map[linkKey]float64
	totalLoad         float64
	sends             int
	dead              map[linkKey]bool
	slow              map[linkKey]float64
}

type linkKey struct {
	from Coord
	dir  byte // 'E','W','N','S','L'
}

func newRefMesh(w, h int, linkBytesPerCycle float64, hopLatency int) *refMesh {
	return &refMesh{
		w: w, h: h, linkBytesPerCycle: linkBytesPerCycle, hopLatency: hopLatency,
		linkLoad: map[linkKey]float64{},
		dead:     map[linkKey]bool{},
		slow:     map[linkKey]float64{},
	}
}

func (m *refMesh) contains(c Coord) bool {
	return c.X >= 0 && c.X < m.w && c.Y >= 0 && c.Y < m.h
}

// linkOf returns the directed link key between two adjacent routers, or
// an error for a non-adjacent pair (a malformed path).
func linkOf(from, to Coord) (linkKey, error) {
	switch {
	case to.X == from.X+1 && to.Y == from.Y:
		return linkKey{from, 'E'}, nil
	case to.X == from.X-1 && to.Y == from.Y:
		return linkKey{from, 'W'}, nil
	case to.Y == from.Y+1 && to.X == from.X:
		return linkKey{from, 'S'}, nil
	case to.Y == from.Y-1 && to.X == from.X:
		return linkKey{from, 'N'}, nil
	}
	return linkKey{}, fmt.Errorf("noc: non-adjacent hop %v -> %v", from, to)
}

// linkPair returns a link's key and its reverse; the Mesh validates the
// reference first, so the link exists.
func (m *refMesh) linkPair(from Coord, dir byte) (linkKey, linkKey) {
	for _, d := range dirs {
		if d.dir == dir {
			rev, _ := linkOf(Coord{X: from.X + d.dx, Y: from.Y + d.dy}, from)
			return linkKey{from, dir}, rev
		}
	}
	panic("reference: unknown direction")
}

func (m *refMesh) disableLink(from Coord, dir byte) {
	k, rev := m.linkPair(from, dir)
	m.dead[k], m.dead[rev] = true, true
}

func (m *refMesh) slowLink(from Coord, dir byte, factor float64) {
	k, rev := m.linkPair(from, dir)
	m.slow[k], m.slow[rev] = factor, factor
}

func (m *refMesh) route(src, dst Coord) ([]Coord, error) {
	if !m.contains(src) || !m.contains(dst) {
		return nil, fmt.Errorf("noc: route endpoints out of %dx%d mesh: %v -> %v", m.w, m.h, src, dst)
	}
	if len(m.dead) == 0 {
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
		return path, nil
	}
	if src == dst {
		return nil, nil
	}
	prev := map[Coord]Coord{src: src}
	queue := []Coord{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range dirs {
			next := Coord{X: cur.X + d.dx, Y: cur.Y + d.dy}
			if !m.contains(next) || m.dead[linkKey{cur, d.dir}] {
				continue
			}
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []Coord
				for c := dst; c != src; c = prev[c] {
					path = append(path, c)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fmt.Errorf("noc: %v -> %v with %d dead links: %w", src, dst, len(m.dead)/2, ErrUnreachable)
}

func (m *refMesh) send(src, dst Coord, bytes float64) (int, error) {
	path, err := m.route(src, dst)
	if err != nil {
		return 0, err
	}
	m.sends++
	if src == dst {
		m.linkLoad[linkKey{src, 'L'}] += bytes
		m.totalLoad += bytes
		return 0, nil
	}
	prev := src
	for _, next := range path {
		k, err := linkOf(prev, next)
		if err != nil {
			return 0, err
		}
		m.linkLoad[k] += bytes
		m.totalLoad += bytes
		prev = next
	}
	return len(path) * m.hopLatency, nil
}

func (m *refMesh) multicast(src Coord, dsts []Coord, bytes float64) (int, error) {
	charged := map[linkKey]bool{}
	worst := 0
	m.sends += len(dsts)
	for _, dst := range dsts {
		path, err := m.route(src, dst)
		if err != nil {
			return 0, err
		}
		prev := src
		for _, next := range path {
			k, err := linkOf(prev, next)
			if err != nil {
				return 0, err
			}
			if !charged[k] {
				charged[k] = true
				m.linkLoad[k] += bytes
				m.totalLoad += bytes
			}
			prev = next
		}
		if h := len(path) * m.hopLatency; h > worst {
			worst = h
		}
	}
	return worst, nil
}

func (m *refMesh) drainCycles() float64 {
	var worst float64
	for k, load := range m.linkLoad {
		cap := m.linkBytesPerCycle
		if f, ok := m.slow[k]; ok {
			cap *= f
		}
		if c := load / cap; c > worst {
			worst = c
		}
	}
	return worst
}

func (m *refMesh) reset() {
	m.linkLoad = map[linkKey]float64{}
	m.totalLoad = 0
	m.sends = 0
}

func (m *refMesh) emitCounters(c *telemetry.Collector) {
	keys := make([]linkKey, 0, len(m.linkLoad))
	for k := range m.linkLoad {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from.Y != b.from.Y {
			return a.from.Y < b.from.Y
		}
		if a.from.X != b.from.X {
			return a.from.X < b.from.X
		}
		return a.dir < b.dir
	})
	var bytesHops float64
	for _, k := range keys {
		c.EmitCounter(fmt.Sprintf("noc/link/%d,%d/%c", k.from.X, k.from.Y, k.dir), m.linkLoad[k])
		bytesHops += m.linkLoad[k]
	}
	c.EmitCounter("noc/bytes_hops", bytesHops)
	c.EmitCounter("noc/sends", float64(m.sends))
}

// meshPair drives a Mesh and its reference in lockstep, failing the test
// at the first divergence.
type meshPair struct {
	t   testing.TB
	m   *Mesh
	ref *refMesh
}

func newMeshPair(t testing.TB, w, h int) *meshPair {
	t.Helper()
	m, err := NewMesh(w, h, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	return &meshPair{t: t, m: m, ref: newRefMesh(w, h, 64, 2)}
}

// links lists every physical link once, as its E or S direction.
func (p *meshPair) links() []linkKey {
	var out []linkKey
	for y := 0; y < p.m.H; y++ {
		for x := 0; x < p.m.W; x++ {
			if x+1 < p.m.W {
				out = append(out, linkKey{Coord{x, y}, 'E'})
			}
			if y+1 < p.m.H {
				out = append(out, linkKey{Coord{x, y}, 'S'})
			}
		}
	}
	return out
}

func (p *meshPair) disable(l linkKey) {
	p.t.Helper()
	if err := p.m.DisableLink(l.from, l.dir); err != nil {
		p.t.Fatal(err)
	}
	p.ref.disableLink(l.from, l.dir)
}

func (p *meshPair) slowDown(l linkKey, factor float64) {
	p.t.Helper()
	if err := p.m.SlowLink(l.from, l.dir, factor); err != nil {
		p.t.Fatal(err)
	}
	p.ref.slowLink(l.from, l.dir, factor)
}

// sameErr checks that both sides failed alike: the same message, and
// ErrUnreachable matched on both or neither.
func (p *meshPair) sameErr(what string, got, want error) {
	p.t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) ||
		errors.Is(got, ErrUnreachable) != errors.Is(want, ErrUnreachable) {
		p.t.Fatalf("%s: error %v, reference %v", what, got, want)
	}
}

func (p *meshPair) route(src, dst Coord) {
	p.t.Helper()
	got, err := p.m.Route(src, dst)
	want, werr := p.ref.route(src, dst)
	p.sameErr(fmt.Sprintf("route %v -> %v", src, dst), err, werr)
	if len(got) != 0 || len(want) != 0 {
		if !reflect.DeepEqual(got, want) {
			p.t.Fatalf("route %v -> %v = %v, reference %v", src, dst, got, want)
		}
	}
}

func (p *meshPair) routeAll() {
	p.t.Helper()
	for s := 0; s < p.m.W*p.m.H; s++ {
		for d := 0; d < p.m.W*p.m.H; d++ {
			p.route(p.m.PEIndex(s), p.m.PEIndex(d))
		}
	}
}

func (p *meshPair) send(src, dst Coord, bytes float64) {
	p.t.Helper()
	lat, err := p.m.Send(src, dst, bytes)
	want, werr := p.ref.send(src, dst, bytes)
	p.sameErr(fmt.Sprintf("send %v -> %v", src, dst), err, werr)
	if lat != want {
		p.t.Fatalf("send %v -> %v latency %d, reference %d", src, dst, lat, want)
	}
}

func (p *meshPair) multicast(src Coord, dsts []Coord, bytes float64) {
	p.t.Helper()
	lat, err := p.m.Multicast(src, dsts, bytes)
	want, werr := p.ref.multicast(src, dsts, bytes)
	p.sameErr(fmt.Sprintf("multicast %v -> %v", src, dsts), err, werr)
	if lat != want {
		p.t.Fatalf("multicast %v -> %v latency %d, reference %d", src, dsts, lat, want)
	}
}

// accounting compares everything the loads feed: drain, bytes×hops,
// send count, fault counts and the emitted counters.
func (p *meshPair) accounting() {
	p.t.Helper()
	if got, want := p.m.DrainCycles(), p.ref.drainCycles(); got != want {
		p.t.Fatalf("DrainCycles %v, reference %v", got, want)
	}
	if got, want := p.m.TotalBytesHops(), p.ref.totalLoad; got != want {
		p.t.Fatalf("TotalBytesHops %v, reference %v", got, want)
	}
	if got, want := p.m.Sends(), p.ref.sends; got != want {
		p.t.Fatalf("Sends %d, reference %d", got, want)
	}
	if got, want := p.m.DeadLinks(), len(p.ref.dead)/2; got != want {
		p.t.Fatalf("DeadLinks %d, reference %d", got, want)
	}
	if got, want := p.m.SlowLinks(), len(p.ref.slow)/2; got != want {
		p.t.Fatalf("SlowLinks %d, reference %d", got, want)
	}
	got, want := telemetry.New(), telemetry.New()
	p.m.EmitCounters(got)
	p.ref.emitCounters(want)
	if !reflect.DeepEqual(got.Counters(), want.Counters()) {
		p.t.Fatalf("EmitCounters\n got %v\nwant %v", got.Counters(), want.Counters())
	}
}

func (p *meshPair) reset() {
	p.m.Reset()
	p.ref.reset()
}

// randomTraffic issues a seeded mix of unicasts (co-located ones
// included) and multicasts, with a Reset part-way through.
func (p *meshPair) randomTraffic(rng *rand.Rand, n int) {
	p.t.Helper()
	pes := p.m.W * p.m.H
	pick := func() Coord { return p.m.PEIndex(rng.Intn(pes)) }
	for i := 0; i < n; i++ {
		bytes := float64(rng.Intn(4096)) / 3
		switch rng.Intn(5) {
		case 0:
			dsts := make([]Coord, 1+rng.Intn(4))
			for j := range dsts {
				dsts[j] = pick()
			}
			p.multicast(pick(), dsts, bytes)
		case 1:
			c := pick()
			p.send(c, c, bytes)
		default:
			p.send(pick(), pick(), bytes)
		}
		if i == n/2 {
			p.accounting()
			p.reset()
		}
	}
	p.accounting()
}

// TestMeshMatchesReference checks routing and load accounting against
// the per-pair BFS and map-keyed reference on seeded random fault sets:
// every Route path and ErrUnreachable, every Send and Multicast latency,
// and DrainCycles over slowed links, TotalBytesHops and EmitCounters.
func TestMeshMatchesReference(t *testing.T) {
	for _, size := range [][2]int{{8, 8}, {16, 8}, {64, 1}} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", size[0], size[1], seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				p := newMeshPair(t, size[0], size[1])
				links := p.links()
				rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
				// Seed 1 stays healthy (the X-Y path); the others kill
				// more links each, partitioning the 64×1 row.
				nDead := int(seed-1) * 3
				for _, l := range links[:nDead] {
					p.disable(l)
				}
				for _, l := range links[nDead : nDead+3] {
					p.slowDown(l, 0.25+0.5*rng.Float64())
				}
				p.routeAll()
				p.randomTraffic(rng, 400)
			})
		}
	}
}

// TestDisableLinkAfterRoutingReroutes checks that a link disabled after
// routes were cached drops them: the detour taken afterwards avoids the
// new dead link and matches the reference.
func TestDisableLinkAfterRoutingReroutes(t *testing.T) {
	p := newMeshPair(t, 8, 8)
	p.disable(linkKey{Coord{3, 3}, 'E'})
	src, dst := Coord{0, 2}, Coord{6, 2}
	before := mustRoute(t, p.m, src, dst)
	p.routeAll()
	// Cut the cached detour at its middle hop.
	mid := len(before) / 2
	k, err := linkOf(before[mid-1], before[mid])
	if err != nil {
		t.Fatal(err)
	}
	p.disable(k)
	after := mustRoute(t, p.m, src, dst)
	if reflect.DeepEqual(before, after) {
		t.Fatalf("route %v -> %v still %v after its link %v/%c died", src, dst, before, k.from, k.dir)
	}
	p.routeAll()
	p.randomTraffic(rand.New(rand.NewSource(7)), 200)
}

// FuzzRouteAvoiding checks a Route and a Send between one endpoint pair,
// and the resulting accounting, against the reference on a fuzzed mesh
// size and dead-link set (bit i of dead kills the mesh's i-th link).
func FuzzRouteAvoiding(f *testing.F) {
	f.Add(uint8(4), uint8(2), []byte{0x04}, uint8(0), uint8(0), uint8(3), uint8(0))
	f.Add(uint8(8), uint8(8), []byte{0xff, 0x10, 0x22}, uint8(1), uint8(7), uint8(6), uint8(0))
	f.Add(uint8(16), uint8(1), []byte{0x80}, uint8(0), uint8(0), uint8(15), uint8(0))
	f.Add(uint8(1), uint8(9), []byte{}, uint8(0), uint8(8), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, w, h uint8, dead []byte, sx, sy, dx, dy uint8) {
		mw, mh := 1+int(w)%16, 1+int(h)%16
		p := newMeshPair(t, mw, mh)
		for i, l := range p.links() {
			if i/8 < len(dead) && dead[i/8]&(1<<(i%8)) != 0 {
				p.disable(l)
			}
		}
		// Endpoints may fall one PE outside the mesh, to cover the
		// validation error.
		src := Coord{int(sx) % (mw + 1), int(sy) % (mh + 1)}
		dst := Coord{int(dx) % (mw + 1), int(dy) % (mh + 1)}
		p.route(src, dst)
		p.send(src, dst, 96)
		p.send(dst, src, 32)
		p.multicast(src, []Coord{dst, src}, 16)
		p.accounting()
	})
}

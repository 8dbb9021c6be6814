package fault

import (
	"fmt"
	"math/rand"

	"crophe/internal/arch"
	"crophe/internal/noc"
)

// Link identifies one mesh link by its lexically smaller endpoint and
// direction, plus the surviving bandwidth factor (0 = dead).
type Link struct {
	From   noc.Coord
	Dir    byte // 'E' or 'S' (links are bidirectional; one name per link)
	Factor float64
}

// Stall is one transient stall event injected into the simulation.
type Stall struct {
	Cycles float64
}

// Plan is the concrete, seeded instantiation of a Spec against one mesh
// geometry: which rows, links and banks fail. Plans are value types;
// applying one never mutates it.
type Plan struct {
	Seed  int64
	Spec  Spec
	MeshW int
	MeshH int

	FailedRows []int  // sorted physical row indices
	DeadLinks  []Link // Factor 0
	SlowLinks  []Link // Factor = Spec.SlowFactor
	DeadBanks  int
	HBMFrac    float64 // surviving HBM bandwidth (1 = healthy)
	LaneFrac   float64 // failed lane fraction per PE
	Stalls     []Stall
	StallProb  float64

	// Silent-data-corruption dimensions. FlipRate is the per-access
	// bit-flip rate the integrity layer must detect; ScrubPeriod > 0
	// bounds how long a flipped cell persists. QuarantinedBanks are the
	// buffer banks whose corruption is persistent (unscrubbed machines
	// only): the recovery policy treats them like disabled banks.
	FlipRate         float64
	ScrubPeriod      int
	QuarantinedBanks []int // sorted bank indices; empty when scrubbed or clean
}

// Per-dimension stream salts: each fault dimension draws from its own
// seeded stream, so changing the count of one dimension never reshuffles
// another — and a (spec, seed) with k failures of a resource is always a
// strict subset of the same seed with k+1 (see TestPlanPrefixNesting).
const (
	saltRows   = 0x726f7773 // "rows"
	saltLinks  = 0x6c696e6b // "link"
	saltSlow   = 0x736c6f77 // "slow"
	saltStalls = 0x7374616c // "stal"
	saltFlip   = 0x666c6970 // "flip"
)

func dimRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ salt))
}

// meshLinks enumerates every undirected link of a w×h mesh in a fixed
// deterministic order (row-major, E before S).
func meshLinks(w, h int) []Link {
	var out []Link
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x < w-1 {
				out = append(out, Link{From: noc.Coord{X: x, Y: y}, Dir: 'E'})
			}
			if y < h-1 {
				out = append(out, Link{From: noc.Coord{X: x, Y: y}, Dir: 'S'})
			}
		}
	}
	return out
}

// Generate instantiates a spec against a hardware configuration's mesh
// under a seed. It rejects specs that name more resources than the
// machine has — that is a caller bug, not a degraded machine.
func Generate(hw *arch.HWConfig, spec Spec, seed int64) (Plan, error) {
	meshW, meshH := hw.SimMesh()
	p := Plan{Seed: seed, Spec: spec, MeshW: meshW, MeshH: meshH, HBMFrac: 1}

	if spec.FailedRows > meshH {
		return p, fmt.Errorf("fault: spec fails %d rows but the %dx%d mesh has %d (seed %d)",
			spec.FailedRows, meshW, meshH, meshH, seed)
	}
	links := meshLinks(meshW, meshH)
	if spec.DeadLinks+spec.SlowLinks > len(links) {
		return p, fmt.Errorf("fault: spec degrades %d links but the %dx%d mesh has %d (seed %d)",
			spec.DeadLinks+spec.SlowLinks, meshW, meshH, len(links), seed)
	}
	if spec.DeadBanks >= bufBanks {
		return p, fmt.Errorf("fault: spec disables %d of %d global-buffer banks — none left (seed %d)",
			spec.DeadBanks, bufBanks, seed)
	}
	if spec.FlipRate < 0 || spec.FlipRate >= 1 {
		return p, fmt.Errorf("fault: flip rate %g outside [0, 1) (seed %d)", spec.FlipRate, seed)
	}
	if spec.ScrubPeriod < 0 {
		return p, fmt.Errorf("fault: scrub period %d is negative (seed %d)", spec.ScrubPeriod, seed)
	}
	quarantine := quarantineCount(spec)
	if spec.DeadBanks+quarantine >= bufBanks {
		return p, fmt.Errorf("fault: %d dead + %d quarantined of %d global-buffer banks — none left (seed %d)",
			spec.DeadBanks, quarantine, bufBanks, seed)
	}

	// Failed rows: a seeded permutation of row indices, prefix-selected.
	rowPerm := dimRand(seed, saltRows).Perm(meshH)
	p.FailedRows = append(p.FailedRows, rowPerm[:spec.FailedRows]...)
	sortInts(p.FailedRows)

	// Dead links: prefix of a seeded link permutation. Slow links draw
	// from their own stream and skip links already dead, so both sets
	// nest independently under their own counts.
	linkPerm := dimRand(seed, saltLinks).Perm(len(links))
	dead := map[int]bool{}
	for _, li := range linkPerm[:spec.DeadLinks] {
		dead[li] = true
		p.DeadLinks = append(p.DeadLinks, links[li])
	}
	slowPerm := dimRand(seed, saltSlow).Perm(len(links))
	for _, li := range slowPerm {
		if len(p.SlowLinks) == spec.SlowLinks {
			break
		}
		if dead[li] {
			continue
		}
		l := links[li]
		l.Factor = spec.SlowFactor
		p.SlowLinks = append(p.SlowLinks, l)
	}

	p.DeadBanks = spec.DeadBanks
	if spec.HBMFrac > 0 {
		p.HBMFrac = spec.HBMFrac
	}
	p.LaneFrac = spec.LaneFrac
	p.StallProb = spec.StallProb
	p.FlipRate = spec.FlipRate
	p.ScrubPeriod = spec.ScrubPeriod

	// Quarantined banks: on an unscrubbed machine a fraction of the
	// flip-afflicted banks develop persistent (stuck) corruption; the
	// recovery policy escalates those from recompute to quarantine, which
	// the scheduler then prices exactly like disabled banks. Prefix of a
	// seeded permutation, so quarantine sets nest as the rate escalates.
	if quarantine > 0 {
		bankPerm := dimRand(seed, saltFlip).Perm(bufBanks)
		p.QuarantinedBanks = append(p.QuarantinedBanks, bankPerm[:quarantine]...)
		sortInts(p.QuarantinedBanks)
	}

	// Stall events: seeded durations around the spec's nominal length
	// (0.5×–1.5×), drawn one at a time so stall lists nest by count.
	stallRand := dimRand(seed, saltStalls)
	for i := 0; i < spec.Stalls; i++ {
		p.Stalls = append(p.Stalls, Stall{Cycles: spec.StallCycles * (0.5 + stallRand.Float64())})
	}
	return p, nil
}

// Derating folds the plan into surviving-resource fractions — the
// effective-resource view the scheduler's analytical model consumes.
func (p *Plan) Derating() arch.Derating {
	d := arch.Healthy()
	if p.MeshH > 0 {
		d.PEs = float64(p.MeshH-len(p.FailedRows)) / float64(p.MeshH)
	}
	d.Lane = 1 - p.LaneFrac
	total := float64(len(meshLinks(p.MeshW, p.MeshH)))
	if total > 0 {
		lost := float64(len(p.DeadLinks))
		for _, l := range p.SlowLinks {
			lost += 1 - l.Factor
		}
		d.NoC = 1 - lost/total
	}
	d.SRAM = float64(bufBanks-p.DeadBanks-len(p.QuarantinedBanks)) / float64(bufBanks)
	d.DRAM = p.HBMFrac
	return d
}

// FaultCount is the total number of discrete injected faults — the
// x-axis of a resilience sweep. Quarantined banks count: each is a
// persistent corruption the recovery layer had to take out of service.
func (p *Plan) FaultCount() int {
	return len(p.FailedRows) + len(p.DeadLinks) + len(p.SlowLinks) + p.DeadBanks +
		len(p.Stalls) + len(p.QuarantinedBanks)
}

// quarantineCount is the number of buffer banks with persistent
// corruption under a spec: scrubbing (scrub:P) clears latent flips
// before they stick, so only unscrubbed machines quarantine banks.
func quarantineCount(spec Spec) int {
	if spec.FlipRate <= 0 || spec.ScrubPeriod > 0 {
		return 0
	}
	return int(spec.FlipRate * float64(bufBanks) / 2)
}

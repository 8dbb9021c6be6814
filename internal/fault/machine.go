package fault

import (
	"errors"
	"fmt"
	"math/rand"

	"crophe/internal/arch"
	"crophe/internal/mem"
	"crophe/internal/noc"
	"crophe/internal/telemetry"
)

// bufBanks mirrors the simulator's global-buffer bank count.
const bufBanks = mem.GlobalBufBanks

// ErrMachineDead is the sentinel for fault plans that leave no feasible
// machine at all: every PE row failed, or the surviving mesh is
// partitioned so live PEs cannot reach each other.
var ErrMachineDead = errors.New("fault: machine dead")

// Machine binds a fault plan to a hardware configuration and serves the
// degraded view each layer consumes. Build one with NewMachine, which
// validates feasibility up front.
type Machine struct {
	Base *arch.HWConfig
	Plan Plan

	eff *arch.HWConfig
}

// NewMachine validates the plan against the configuration and returns
// the bound machine. Plans that leave no feasible machine (every row
// failed, mesh partitioned between surviving PEs) fail with an error
// matching ErrMachineDead that carries the fault seed.
func NewMachine(hw *arch.HWConfig, plan Plan) (*Machine, error) {
	m := &Machine{Base: hw, Plan: plan}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.eff = hw.Derate(plan.Derating())
	return m, nil
}

// Validate checks that the degraded machine can still execute anything:
// at least one PE row alive, surviving rows mutually reachable over the
// surviving mesh, at least one buffer bank, non-zero HBM bandwidth.
func (m *Machine) Validate() error {
	p := &m.Plan
	if len(p.FailedRows) >= p.MeshH && p.MeshH > 0 {
		return fmt.Errorf("fault: plan (seed %d) failed every PE row (%d of %d): %w",
			p.Seed, len(p.FailedRows), p.MeshH, ErrMachineDead)
	}
	if p.DeadBanks+len(p.QuarantinedBanks) >= bufBanks {
		return fmt.Errorf("fault: plan (seed %d) disabled or quarantined every global-buffer bank: %w",
			p.Seed, ErrMachineDead)
	}
	if p.HBMFrac <= 0 {
		return fmt.Errorf("fault: plan (seed %d) throttled HBM to zero: %w", p.Seed, ErrMachineDead)
	}
	if p.LaneFrac >= 1 {
		return fmt.Errorf("fault: plan (seed %d) degraded every lane: %w", p.Seed, ErrMachineDead)
	}
	// Connectivity: every PE in a surviving row must reach a reference
	// live PE over the surviving links (routers in failed rows still
	// forward, so only links can partition the mesh).
	if len(p.DeadLinks) > 0 {
		mesh, err := noc.NewMesh(p.MeshW, p.MeshH, 64, 1)
		if err != nil {
			return fmt.Errorf("fault: plan (seed %d) mesh: %w", p.Seed, err)
		}
		if err := m.ApplyToMesh(mesh); err != nil {
			return err
		}
		failed := m.FailedRows()
		var ref *noc.Coord
		for y := 0; y < p.MeshH; y++ {
			if failed[y] {
				continue
			}
			for x := 0; x < p.MeshW; x++ {
				c := noc.Coord{X: x, Y: y}
				if ref == nil {
					ref = &c
					continue
				}
				if _, err := mesh.Route(*ref, c); err != nil {
					return fmt.Errorf("fault: plan (seed %d) partitions the mesh: PE %v unreachable from %v: %w",
						p.Seed, c, *ref, ErrMachineDead)
				}
			}
		}
	}
	return nil
}

// EffectiveHW returns the derated configuration the scheduler searches
// on — its analytical model sees fewer PEs/lanes/banks and less
// bandwidth, so degraded-mode schedules fall out of the normal search.
func (m *Machine) EffectiveHW() *arch.HWConfig {
	if m.eff == nil {
		m.eff = m.Base.Derate(m.Plan.Derating())
	}
	return m.eff
}

// FailedRows returns the failed mesh rows as a set.
func (m *Machine) FailedRows() map[int]bool {
	out := make(map[int]bool, len(m.Plan.FailedRows))
	for _, r := range m.Plan.FailedRows {
		out[r] = true
	}
	return out
}

// ApplyToMesh installs the plan's dead and slowed links into a mesh
// model. The mesh must match the plan's geometry.
func (m *Machine) ApplyToMesh(mesh *noc.Mesh) error {
	if mesh.W != m.Plan.MeshW || mesh.H != m.Plan.MeshH {
		return fmt.Errorf("fault: plan (seed %d) is for a %dx%d mesh, got %dx%d",
			m.Plan.Seed, m.Plan.MeshW, m.Plan.MeshH, mesh.W, mesh.H)
	}
	for _, l := range m.Plan.DeadLinks {
		if err := mesh.DisableLink(l.From, l.Dir); err != nil {
			return fmt.Errorf("fault: plan (seed %d) dead link %v/%c: %w", m.Plan.Seed, l.From, l.Dir, err)
		}
	}
	for _, l := range m.Plan.SlowLinks {
		if err := mesh.SlowLink(l.From, l.Dir, l.Factor); err != nil {
			return fmt.Errorf("fault: plan (seed %d) slow link %v/%c: %w", m.Plan.Seed, l.From, l.Dir, err)
		}
	}
	return nil
}

// ApplyToHBM throttles an HBM model to the plan's surviving bandwidth.
func (m *Machine) ApplyToHBM(h *mem.HBM) error {
	if m.Plan.HBMFrac >= 1 {
		return nil
	}
	if err := h.Throttle(m.Plan.HBMFrac); err != nil {
		return fmt.Errorf("fault: plan (seed %d) HBM throttle: %w", m.Plan.Seed, err)
	}
	return nil
}

// ApplyToSRAM disables the plan's dead banks in a buffer model, plus
// the quarantined ones — once the integrity layer escalates a bank's
// persistent corruption, the simulator stops scheduling traffic to it
// exactly as if the bank were structurally disabled.
func (m *Machine) ApplyToSRAM(s *mem.SRAM) error {
	down := m.Plan.DeadBanks + len(m.Plan.QuarantinedBanks)
	if down == 0 {
		return nil
	}
	if err := s.DisableBanks(down); err != nil {
		return fmt.Errorf("fault: plan (seed %d) buffer banks: %w", m.Plan.Seed, err)
	}
	return nil
}

// StallSampler returns a fresh seeded sampler over the plan's transient
// stalls. The simulator queries it once per simulated group; given the
// same group sequence, the injected stalls are identical on every run.
func (m *Machine) StallSampler() *StallSampler {
	return &StallSampler{
		events: append([]Stall(nil), m.Plan.Stalls...),
		prob:   m.Plan.StallProb,
		nomDur: m.Plan.Spec.StallCycles,
		rng:    dimRand(m.Plan.Seed, saltStalls+1),
	}
}

// StallSampler deals out the plan's transient stall events: the fixed
// events first (one per query until exhausted), then probabilistic
// stalls at the plan's per-group probability.
type StallSampler struct {
	events []Stall
	next   int
	prob   float64
	nomDur float64
	rng    *rand.Rand

	total float64
	count int
}

// Next returns the stall cycles to inject at this query point (0 for
// no stall).
func (ss *StallSampler) Next() float64 {
	var cycles float64
	if ss.next < len(ss.events) {
		cycles = ss.events[ss.next].Cycles
		ss.next++
	} else if ss.prob > 0 && ss.rng.Float64() < ss.prob {
		dur := ss.nomDur
		if dur <= 0 {
			dur = 100
		}
		cycles = dur * (0.5 + ss.rng.Float64())
	}
	if cycles > 0 {
		ss.total += cycles
		ss.count++
	}
	return cycles
}

// Injected reports the stalls dealt so far (count, total cycles).
func (ss *StallSampler) Injected() (int, float64) { return ss.count, ss.total }

// EmitCounters publishes the plan as telemetry counters under fault/*.
func (m *Machine) EmitCounters(c *telemetry.Collector) {
	if !c.Enabled() {
		return
	}
	p := &m.Plan
	c.EmitCounter("fault/seed", float64(p.Seed))
	c.EmitCounter("fault/failed_rows", float64(len(p.FailedRows)))
	c.EmitCounter("fault/dead_links", float64(len(p.DeadLinks)))
	c.EmitCounter("fault/slow_links", float64(len(p.SlowLinks)))
	c.EmitCounter("fault/dead_banks", float64(p.DeadBanks))
	c.EmitCounter("fault/hbm_frac", p.HBMFrac)
	c.EmitCounter("fault/lane_frac", p.LaneFrac)
	c.EmitCounter("fault/stall_events", float64(len(p.Stalls)))
	c.EmitCounter("fault/flip_rate", p.FlipRate)
	c.EmitCounter("fault/scrub_period", float64(p.ScrubPeriod))
	c.EmitCounter("fault/quarantined_banks", float64(len(p.QuarantinedBanks)))
}

// Describe renders a one-line human summary of the degraded machine.
func (m *Machine) Describe() string {
	p := &m.Plan
	return fmt.Sprintf("%s under %q (seed %d): %d/%d rows down, %d dead + %d slow links, %d/%d banks down (%d quarantined), HBM %.0f%% — effective PEs %d, lanes %d",
		m.Base.Name, p.Spec.String(), p.Seed,
		len(p.FailedRows), p.MeshH, len(p.DeadLinks), len(p.SlowLinks),
		p.DeadBanks+len(p.QuarantinedBanks), bufBanks, len(p.QuarantinedBanks), p.HBMFrac*100,
		m.EffectiveHW().NumPEs, m.EffectiveHW().Lanes)
}

package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"crophe/internal/arch"
	"crophe/internal/fault"
	"crophe/internal/sched"
	"crophe/internal/sim"
	"crophe/internal/workload"
)

// sim-replay: closed loop, one caller. Set-up schedules every Figure 9
// design point once, under the single rotation structure /v1/simulate
// uses (hoisted); each op replays one cell's four schedules through the
// cycle simulator, on a healthy or on a faulted machine. It isolates the
// simulator and its NoC, memory and fault models from the scheduler.

const (
	// replayHealthy and replayFaulted are how often each cell is replayed
	// per pass on a healthy and on a faulted machine. Faulted replays cost
	// several times more; keeping them a quarter of the ops keeps the
	// median among the healthy ones instead of in the gap between the two.
	replayHealthy = 3
	replayFaulted = 1
	// replayPlans is how many seeded fault plans each cell's faulted
	// replays rotate through: every plan is replayed several times (the
	// repeat check), and the run's cost averages over many plans.
	replayPlans = 4
	// replaySecondsPerPass is the nominal host time of one pass, which
	// turns --seconds into a pass count.
	replaySecondsPerPass = 2.0
)

// Fault loads of the faulted replays: one for the CROPHE meshes, and one
// without downed links for the baselines, whose single-row meshes any
// dead link would partition.
var (
	meshFaults     = fault.Spec{DeadLinks: 2, DeadBanks: 4, HBMFrac: 0.8, Stalls: 4, StallCycles: 200, FlipRate: 1e-3}
	baselineFaults = fault.Spec{DeadBanks: 4, HBMFrac: 0.8, Stalls: 4, StallCycles: 200, FlipRate: 1e-3}
)

type replayPoint struct {
	name string
	hw   *arch.HWConfig
	w    *workload.Workload
	s    *sched.Schedule
}

type replayCell struct {
	key        string
	points     []replayPoint
	faultSeeds []int64 // the fault-plan seeds of this cell's faulted replays
	faulted    int     // faulted replays so far, to rotate through the seeds
}

type simReplay struct {
	cells  []replayCell
	passes int
	rng    *rand.Rand
	cycles map[string]float64 // first simulated cycles per (point, health)
}

func faultSpecFor(hw *arch.HWConfig) fault.Spec {
	if hw.Homogeneous {
		return meshFaults
	}
	return baselineFaults
}

func newFaultMachine(hw *arch.HWConfig, seed int64) (*fault.Machine, error) {
	plan, err := fault.Generate(hw, faultSpecFor(hw), seed)
	if err != nil {
		return nil, err
	}
	return fault.NewMachine(hw, plan)
}

func setupSimReplay(seed int64, seconds int) (instance, error) {
	b := &simReplay{
		passes: max(2, int(math.Round(float64(seconds)/replaySecondsPerPass))),
		rng:    rand.New(rand.NewSource(seed)),
		cycles: map[string]float64{},
	}
	for ci, c := range figure9Cells() {
		rc := replayCell{key: c.key}
		factory := c.pairing.WorkloadFactories()[c.wl]
		for _, d := range c.pairing.Designs() {
			w := factory(workload.RotHoisted, 0)
			if d.NTTDec {
				w = w.DecomposeNTTs()
			}
			rc.points = append(rc.points, replayPoint{name: d.Name, hw: d.HW, w: w, s: sched.New(d.HW, designOptions(d)).Run(w)})
		}
		// Take seeds from this run's seed on, skipping any plan that some
		// machine of the cell would not survive, so no replay fails.
		for fs := seed*1000 + int64(ci)*50; len(rc.faultSeeds) < replayPlans; fs++ {
			err := rc.machinesLive(fs)
			if err == nil {
				rc.faultSeeds = append(rc.faultSeeds, fs)
			} else if !errors.Is(err, fault.ErrMachineDead) {
				return nil, fmt.Errorf("%s fault plan: %w", rc.key, err)
			}
		}
		b.cells = append(b.cells, rc)
	}
	return b, nil
}

func (rc *replayCell) machinesLive(faultSeed int64) error {
	for _, p := range rc.points {
		if _, err := newFaultMachine(p.hw, faultSeed); err != nil {
			return err
		}
	}
	return nil
}

func (b *simReplay) sloLimit() time.Duration { return 250 * time.Millisecond }
func (b *simReplay) close() error            { return nil }

func (b *simReplay) digest() string {
	items := map[string]uint64{}
	for _, k := range sortedKeys(b.cycles) {
		d := newDigest()
		d.f(b.cycles[k])
		items[k] = d.sum()
	}
	return combine(items)
}

func (b *simReplay) run(tr *tracer) (*phase, error) {
	var simCycles float64
	perCell := replayHealthy + replayFaulted
	ph := closedLoop(b.rng, b.passes, perCell*len(b.cells), tr, func(item int, tr *tracer, root, op int) func() error {
		c := &b.cells[item/perCell]
		faulted := item%perCell >= replayHealthy
		var faultSeed int64
		if faulted {
			faultSeed = c.faultSeeds[c.faulted%len(c.faultSeeds)]
			c.faulted++
		}
		cycles := make([]float64, len(c.points))
		var err error
		for i, p := range c.points {
			if cycles[i], err = b.replay(p, faultSeed, faulted, tr, root, op); err != nil {
				break
			}
		}
		if tr != nil {
			for _, cy := range cycles {
				simCycles += cy
			}
		}
		return func() error {
			if err != nil {
				return err
			}
			for i, p := range c.points {
				key := c.key + "/" + p.name + "/healthy"
				if faulted {
					key = fmt.Sprintf("%s/%s/fault-seed-%d", c.key, p.name, faultSeed)
				}
				cy := cycles[i]
				if !finite(cy) || cy <= 0 {
					return fmt.Errorf("%s: simulated cycles %v are not finite and positive", key, cy)
				}
				if prev, ok := b.cycles[key]; ok && prev != cy {
					return fmt.Errorf("%s: replay gave %v cycles, the first replay %v", key, cy, prev)
				}
				b.cycles[key] = cy
			}
			return nil
		}
	})
	if tr != nil {
		lt := tr.attribute("op")
		ph.layers["sim.healthy_ms"] = lt.perOp("sim.healthy")
		ph.layers["sim.faulted_ms"] = lt.perOp("sim.faulted")
		ph.layers["fault.machine_ms"] = lt.perOp("fault.machine")
		if simT := lt.self["sim.healthy"] + lt.self["sim.faulted"]; simT > 0 {
			ph.layers["sim.mcycles_per_s"] = simCycles / simT.Seconds() / 1e6
		}
	}
	return ph, nil
}

// replay simulates one schedule, on a fresh faulted machine when faulted.
func (b *simReplay) replay(p replayPoint, faultSeed int64, faulted bool, tr *tracer, root, op int) (float64, error) {
	var res *sim.Result
	var err error
	if !faulted {
		tr.call("sim.healthy", root, op, func() { res, err = sim.New(p.hw).SimulateSchedule(p.w, p.s) })
	} else {
		var m *fault.Machine
		tr.call("fault.machine", root, op, func() { m, err = newFaultMachine(p.hw, faultSeed) })
		if err != nil {
			return 0, fmt.Errorf("%s fault machine: %w", p.name, err)
		}
		tr.call("sim.faulted", root, op, func() { res, err = sim.New(p.hw, sim.WithFaults(m)).SimulateSchedule(p.w, p.s) })
	}
	if err != nil {
		return 0, fmt.Errorf("%s simulate: %w", p.name, err)
	}
	return res.Cycles, nil
}

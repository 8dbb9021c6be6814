// Package sim is the cycle-level performance simulator of the CROPHE
// evaluation (§VI): it executes each scheduled group, as placed by the
// mapper, on a modeled chip — PEs with pre-characterised operator
// latencies, the mesh NoC with X-Y routing and multicast, the banked
// global buffer, and the HBM — and reports cycles and per-resource
// utilisation. It refines the scheduler's analytical estimates the same
// way the paper's simulator validates its scheduler.
//
// Construction uses functional options:
//
//	eng := sim.New(hw,
//	        sim.WithTelemetry(telemetry.New()),
//	        sim.WithMeshOverride(16, 4))
//
// With a telemetry collector attached, the simulator records one span per
// segment, group, and transfer (exportable as a Chrome trace via
// telemetry.Collector.ChromeTrace) plus resource counters; without one,
// every emission site is guarded by Collector.Enabled and costs nothing.
package sim

import (
	"context"
	"fmt"

	"crophe/internal/arch"
	"crophe/internal/fault"
	"crophe/internal/mapper"
	"crophe/internal/mem"
	"crophe/internal/noc"
	"crophe/internal/sched"
	"crophe/internal/telemetry"
	"crophe/internal/workload"
)

// SegmentCycles is the simulated cost of one unique workload segment.
type SegmentCycles struct {
	// Name is the segment name (unique within a workload).
	Name string
	// Cycles is the cost of one execution of the segment.
	Cycles float64
	// Count is how many times the segment executes per task.
	Count int
}

// Result summarises one simulated workload execution.
type Result struct {
	Workload string
	HW       string
	Cycles   float64
	TimeSec  float64
	Util     sched.Utilization
	Traffic  sched.Traffic
	// EnergyJ is the activity-based energy estimate: each Table II
	// component burns its modeled power while busy (leakage folded in at
	// 10% of peak while idle), plus the HBM interface energy per bit.
	EnergyJ float64
	// PerSegment carries per-unique-segment cycle counts in workload
	// (execution) order.
	PerSegment []SegmentCycles
	// Counters is the snapshot of telemetry counters accumulated during
	// the run (nil when the engine has no collector attached).
	Counters []telemetry.Counter
	// Integrity is the priced silent-data-corruption recovery outcome
	// (nil unless the fault plan injects bit-flips); its cycle penalty is
	// already folded into Cycles.
	Integrity *fault.SDCStats
}

// SegmentCycles returns the per-execution cycles of the named segment and
// whether it was simulated.
func (r *Result) SegmentCycles(name string) (float64, bool) {
	for _, s := range r.PerSegment {
		if s.Name == name {
			return s.Cycles, true
		}
	}
	return 0, false
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithTelemetry attaches a collector; the simulation emits span events
// (per segment, group, and transfer) and resource counters into it. A nil
// collector leaves telemetry disabled.
func WithTelemetry(c *telemetry.Collector) Option {
	return func(e *Engine) { e.tel = c }
}

// WithMeshOverride simulates the workload on a w×h PE mesh regardless of
// the configuration's MeshW/MeshH (a what-if knob for topology studies).
// Non-positive dimensions are ignored.
func WithMeshOverride(w, h int) Option {
	return func(e *Engine) {
		if w > 0 && h > 0 {
			e.meshW, e.meshH = w, h
		}
	}
}

// WithFaults degrades the simulated chip per the machine's fault plan:
// groups avoid failed PE rows, transfers detour dead links and crawl
// over slowed ones, the buffer loses its dead banks, the HBM its
// throttled bandwidth, and seeded transient stalls extend groups. Fault
// activity lands on a "Fault" telemetry track plus fault/* counters. A
// nil machine leaves the chip healthy.
func WithFaults(m *fault.Machine) Option {
	return func(e *Engine) { e.faults = m }
}

// Engine binds a hardware configuration.
type Engine struct {
	hw           *arch.HWConfig
	tel          *telemetry.Collector
	meshW, meshH int
	faults       *fault.Machine
}

// New creates a simulator for a configuration.
func New(hw *arch.HWConfig, opts ...Option) *Engine {
	e := &Engine{hw: hw}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Telemetry returns the attached collector (nil when disabled).
func (e *Engine) Telemetry() *telemetry.Collector { return e.tel }

// Faults returns the attached fault machine (nil for a healthy chip).
func (e *Engine) Faults() *fault.Machine { return e.faults }

// SimulateSchedule executes a scheduled workload cycle-by-cycle at chunk
// granularity and returns refined timing. The schedule's traffic
// provenance is respected: DRAM bytes go through the HBM model with
// streaming locality for auxiliaries and strided locality for spills;
// SRAM bytes through the banked buffer; intra-group transfers through the
// placed mesh.
func (e *Engine) SimulateSchedule(w *workload.Workload, s *sched.Schedule) (*Result, error) {
	var res *Result
	var err error
	// Host-side observability: the run shows up as a task in
	// runtime/trace output and as a pprof label on its samples.
	telemetry.WithHostSpan(context.Background(), "sim:"+w.Name, func(ctx context.Context) {
		res, err = e.simulate(ctx, w, s)
	})
	return res, err
}

func (e *Engine) simulate(ctx context.Context, w *workload.Workload, s *sched.Schedule) (*Result, error) {
	hw := e.hw
	tel := e.tel
	freq := hw.FreqGHz * 1e9

	// Models are built from the BASE configuration and then structurally
	// faulted (banks disabled, channels throttled). The scheduler already
	// planned on the derated effective view; deriving the models from the
	// derated numbers too would charge every fault twice.
	hbm, err := mem.NewHBM(hw.DRAMBandwidthTBs, hw.FreqGHz)
	if err != nil {
		return nil, err
	}
	sram, err := mem.NewSRAM(hw.SRAMCapacityMB, hw.SRAMBandwidthTBs, hw.FreqGHz, mem.GlobalBufBanks)
	if err != nil {
		return nil, err
	}
	var failedRows []int
	var stalls *fault.StallSampler
	if e.faults != nil {
		if err := e.faults.ApplyToHBM(hbm); err != nil {
			return nil, err
		}
		if err := e.faults.ApplyToSRAM(sram); err != nil {
			return nil, err
		}
		failedRows = e.faults.Plan.FailedRows
		stalls = e.faults.StallSampler()
	}

	meshW, meshH := hw.SimMesh()
	if e.meshW > 0 && e.meshH > 0 {
		meshW, meshH = e.meshW, e.meshH
	}
	linkBytesPerCycle := hw.NoCLinkGBs * 1e9 / freq
	if linkBytesPerCycle <= 0 {
		linkBytesPerCycle = hw.LocalBWTBs * 1e12 / freq / float64(meshW)
		if linkBytesPerCycle <= 0 {
			linkBytesPerCycle = 64
		}
	}

	res := &Result{
		Workload: w.Name,
		HW:       hw.Name,
	}
	var busyPE, busyNoC, busySRAM, busyDRAM float64
	// cursor is the model-time clock laying segments end to end on the
	// trace timeline (one execution per unique segment).
	var cursor float64
	var nGroups, nTransfers int
	// One mesh and one placer serve the whole run: the mesh's fault
	// state is fixed, its cached detours stay valid, and every group
	// starts from Reset; the placer reuses its buffers from group to
	// group. Both are built at the first segment with groups, so a
	// schedule without any never checks the fault plan's geometry.
	var mesh *noc.Mesh
	var placer *mapper.Placer

	for _, seg := range s.Segments {
		if len(seg.Groups) == 0 {
			continue
		}
		if mesh == nil {
			if mesh, err = noc.NewMesh(meshW, meshH, linkBytesPerCycle, 1); err != nil {
				return nil, err
			}
			if e.faults != nil {
				if err := e.faults.ApplyToMesh(mesh); err != nil {
					return nil, err
				}
			}
			if placer, err = mapper.NewPlacer(meshW, meshH, failedRows, hw.WordBytes()); err != nil {
				return nil, err
			}
		}
		endRegion := telemetry.HostRegion(ctx, "segment:"+seg.Name)

		segStart := cursor
		var segCycles float64
		for gi := range seg.Groups {
			g := &seg.Groups[gi]
			pl, err := placer.Place(g)
			if err != nil {
				return nil, fmt.Errorf("sim: %s: %w", groupLabel(seg.Name, gi), err)
			}
			groupStart := segStart + segCycles
			// The name labels spans and errors only: build it just then.
			var groupName string
			if tel.Enabled() {
				groupName = groupLabel(seg.Name, gi)
			}
			nGroups++

			// Compute cycles from the pre-characterised operator
			// latencies (the scheduler's stage times at this allocation).
			computeCycles := g.Compute * freq

			// On-chip transfers: route each placed transfer; pipeline
			// head latency adds once, serialisation bounds throughput.
			mesh.Reset()
			headLatency := 0
			for _, tr := range pl.Transfers {
				srcs, dsts := pl.PEs[tr.From], pl.PEs[tr.To]
				if len(srcs) == 0 || len(dsts) == 0 {
					continue
				}
				nTransfers++
				// Spread the payload over producer PEs; each sends its
				// share to its nearest consumer PE (distance-aware
				// pairing — the mapping refinement §IV-B defers to
				// future work, realised here in the router).
				share := tr.Bytes / float64(len(srcs))
				for _, src := range srcs {
					dst := dsts[0]
					best := mesh.Hops(src, dst)
					for _, cand := range dsts[1:] {
						if h := mesh.Hops(src, cand); h < best {
							best, dst = h, cand
						}
					}
					lat, err := mesh.Send(src, dst, share)
					if err != nil {
						return nil, fmt.Errorf("sim: %s transfer %d→%d: %w",
							groupLabel(seg.Name, gi), g.Nodes[tr.From].ID, g.Nodes[tr.To].ID, err)
					}
					if lat > headLatency {
						headLatency = lat
					}
				}
				if tel.Enabled() {
					tel.EmitSpan("NoC", "transfers",
						fmt.Sprintf("%d→%d", g.Nodes[tr.From].ID, g.Nodes[tr.To].ID),
						groupStart, share/linkBytesPerCycle,
						telemetry.Arg{Key: "bytes", Value: tr.Bytes},
						telemetry.Arg{Key: "src_pes", Value: float64(len(srcs))})
				}
			}
			nocCycles := mesh.DrainCycles() + float64(headLatency)

			// Memory cycles from the group's traffic provenance.
			dramCycles := hbm.Transfer(g.Traffic.DRAM, mem.Strided)
			sramCycles := sram.Access(g.Traffic.SRAM, 64)

			groupCycles := max(computeCycles, nocCycles, dramCycles, sramCycles)
			// Synchronous group switch (§IV-A): drain the pipeline.
			groupCycles += float64(headLatency)
			// Transient faults: a stall event freezes the whole group (a
			// pipeline replay after an upset), extending it end to end.
			var stallCycles float64
			if stalls != nil {
				stallCycles = stalls.Next()
				groupCycles += stallCycles
			}
			segCycles += groupCycles

			busyPE += computeCycles
			busyNoC += nocCycles
			busySRAM += sramCycles
			busyDRAM += dramCycles

			if tel.Enabled() {
				// Aggregate lanes carry exactly the cycles added to the
				// busy accumulators, so Σ span durations per track
				// reconciles with Result.Util (see sim tests).
				tel.EmitSpan("PE", "array", groupName, groupStart, computeCycles,
					telemetry.Arg{Key: "ops", Value: float64(len(g.Nodes))})
				for _, b := range pl.Bands {
					for row := b.Row0; row < b.Row0+b.Rows; row++ {
						tel.EmitSpan("PE", fmt.Sprintf("row %d", pl.PhysRow(row)),
							groupName, groupStart, computeCycles)
					}
				}
				if stallCycles > 0 {
					tel.EmitSpan("Fault", "stalls", groupName,
						groupStart+groupCycles-stallCycles, stallCycles,
						telemetry.Arg{Key: "cycles", Value: stallCycles})
				}
				if nocCycles > 0 {
					tel.EmitSpan("NoC", "links", groupName, groupStart, nocCycles,
						telemetry.Arg{Key: "sends", Value: float64(mesh.Sends())})
				}
				if sramCycles > 0 {
					tel.EmitSpan("SRAM", "banks", groupName, groupStart, sramCycles,
						telemetry.Arg{Key: "bytes", Value: g.Traffic.SRAM})
				}
				if dramCycles > 0 {
					tel.EmitSpan("HBM", "channels", groupName, groupStart, dramCycles,
						telemetry.Arg{Key: "bytes", Value: g.Traffic.DRAM})
				}
				mesh.EmitCounters(tel)
			}
		}

		// Segment-level traffic (aux streams, boundary pipelining,
		// spills) recorded by the scheduler but not tied to one group.
		groupT := sched.Traffic{}
		for _, g := range seg.Groups {
			groupT.Add(g.Traffic)
		}
		extra := sched.Traffic{
			DRAM: max(seg.Traffic.DRAM-groupT.DRAM, 0),
			SRAM: max(seg.Traffic.SRAM-groupT.SRAM, 0),
			NoC:  max(seg.Traffic.NoC-groupT.NoC, 0),
		}
		extraCycles := max(
			hbm.Transfer(extra.DRAM, mem.Streaming),
			sram.Access(extra.SRAM, 64),
			extra.NoC/(linkBytesPerCycle*float64(hw.NumPEs)/2),
		)
		// Aux streaming overlaps compute; it extends the segment only
		// when it exceeds the compute+transfer span.
		if extraCycles > segCycles {
			segCycles = extraCycles
		}
		extraDRAM := extra.DRAM / (hw.DRAMBandwidthTBs * 1e12 / freq)
		extraSRAM := extra.SRAM / (hw.SRAMBandwidthTBs * 1e12 / freq)
		busyDRAM += extraDRAM
		busySRAM += extraSRAM

		if tel.Enabled() {
			if extraDRAM > 0 {
				tel.EmitSpan("HBM", "channels", seg.Name+"/aux", segStart, extraDRAM,
					telemetry.Arg{Key: "bytes", Value: extra.DRAM})
			}
			if extraSRAM > 0 {
				tel.EmitSpan("SRAM", "banks", seg.Name+"/aux", segStart, extraSRAM,
					telemetry.Arg{Key: "bytes", Value: extra.SRAM})
			}
			tel.EmitSpan("Schedule", "segments", seg.Name, segStart, segCycles,
				telemetry.Arg{Key: "count", Value: float64(seg.Count)},
				telemetry.Arg{Key: "groups", Value: float64(len(seg.Groups))})
		}
		cursor += segCycles

		res.PerSegment = append(res.PerSegment, SegmentCycles{
			Name: seg.Name, Cycles: segCycles, Count: seg.Count,
		})
		res.Cycles += segCycles * float64(seg.Count)
		res.Traffic.Add(seg.Traffic.Scale(float64(seg.Count)))
		endRegion()
	}

	// Silent-data-corruption recovery: with flip:R injected, every HBM
	// burst and buffer access is a checked unit, and the detect →
	// recompute → escalate protocol's deterministic cycle cost extends
	// the run (see fault.ModelSDC).
	if e.faults != nil && e.faults.Plan.FlipRate > 0 {
		sdc := e.faults.ModelSDC(hbm.Stats().Bursts, float64(sram.Stats().Accesses), res.Cycles)
		res.Cycles += sdc.PenaltyCycles()
		res.Integrity = &sdc
	}

	// The scheduler owns the cluster clamp; a hand-built schedule that
	// leaves the count zero runs on one cluster.
	clusters := max(s.Clusters, 1)
	res.Cycles /= float64(clusters)
	res.TimeSec = res.Cycles / freq
	if res.Cycles > 0 {
		total := res.Cycles * float64(clusters)
		res.Util = sched.Utilization{
			PE:   min(busyPE/total, 1),
			NoC:  min(busyNoC/total, 1),
			SRAM: min(busySRAM/total, 1),
			DRAM: min(busyDRAM/total, 1),
		}
		res.EnergyJ = e.energy(res, busyPE/freq, busyNoC/freq, busySRAM/freq)
	}

	if tel.Enabled() {
		hbm.EmitCounters(tel)
		sram.EmitCounters(tel)
		if e.faults != nil {
			e.faults.EmitCounters(tel)
			// Plan-summary span covering the whole run, so the Fault track
			// exists in every degraded trace even when no stall fired.
			tel.EmitSpan("Fault", "plan", e.faults.Plan.Spec.String(), 0, res.Cycles,
				telemetry.Arg{Key: "seed", Value: float64(e.faults.Plan.Seed)},
				telemetry.Arg{Key: "faults", Value: float64(e.faults.Plan.FaultCount())})
			if stalls != nil {
				n, cycles := stalls.Injected()
				tel.EmitCounter("fault/stalls_injected", float64(n))
				tel.EmitCounter("fault/stall_cycles", cycles)
			}
			if res.Integrity != nil {
				res.Integrity.EmitCounters(tel)
				tel.EmitSpan("Fault", "sdc", "recovery", 0, res.Integrity.PenaltyCycles(),
					telemetry.Arg{Key: "detected", Value: res.Integrity.Detected},
					telemetry.Arg{Key: "recomputed", Value: res.Integrity.Recomputed})
			}
		}
		tel.EmitCounter("sim/segments", float64(len(res.PerSegment)))
		tel.EmitCounter("sim/groups", float64(nGroups))
		tel.EmitCounter("sim/transfers", float64(nTransfers))
		tel.EmitCounter("sim/busy_cycles/pe", busyPE)
		tel.EmitCounter("sim/busy_cycles/noc", busyNoC)
		tel.EmitCounter("sim/busy_cycles/sram", busySRAM)
		tel.EmitCounter("sim/busy_cycles/dram", busyDRAM)
		res.Counters = tel.Counters()
	}
	return res, nil
}

// energy is the activity-based estimate: each component dissipates its
// Table II power while active and 10% of it (leakage + clocking) while
// idle, and the off-chip interface pays ~5 pJ/bit (HBM-class).
func (e *Engine) energy(res *Result, peBusy, nocBusy, sramBusy float64) float64 {
	chip := arch.ChipModel(e.hw)
	wall := res.TimeSec
	const idleFrac = 0.10
	const hbmPJPerBit = 5.0
	active := func(p arch.Component, busy float64) float64 {
		if busy > wall {
			busy = wall
		}
		return p.PowerW * (busy + idleFrac*(wall-busy))
	}
	energy := active(chip.PEs, peBusy) +
		active(chip.NoC, nocBusy) +
		active(chip.GlobalBuf, sramBusy) +
		active(chip.Transpose, sramBusy) +
		chip.HBMPHY.PowerW*wall +
		res.Traffic.DRAM*8*hbmPJPerBit*1e-12
	return energy
}

// groupLabel names group gi of a segment in spans and errors.
func groupLabel(seg string, gi int) string {
	return fmt.Sprintf("%s/g%d", seg, gi)
}

// Describe renders a short report.
func (r *Result) Describe() string {
	return fmt.Sprintf("%s on %s: %.0f cycles (%.3f ms), util PE %.0f%% NoC %.0f%% SRAM %.0f%% DRAM %.0f%%",
		r.Workload, r.HW, r.Cycles, r.TimeSec*1e3,
		r.Util.PE*100, r.Util.NoC*100, r.Util.SRAM*100, r.Util.DRAM*100)
}

package serve

import (
	"fmt"
	"net/http"

	"crophe"
	"crophe/internal/sched"
	"crophe/internal/workload"
)

// lookup resolves a request's hardware and workload names through the
// shared catalogues, under the hardware's own parameter set. It builds
// nothing: callers build the graph when they need it, always under
// hoisted rotations (crophe-sim's convention).
func lookup(hwName, wlName string) (*crophe.HWConfig, crophe.WorkloadFactory, error) {
	hw, ok := crophe.LookupHW(hwName)
	if !ok {
		return nil, nil, fmt.Errorf("unknown hw %q", hwName)
	}
	factory, ok := workload.Lookup(wlName, crophe.DefaultParamsFor(hw))
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", wlName)
	}
	return hw, factory, nil
}

// resolve maps the request's symbolic fields onto a design point and
// its hoisted-rotation workload.
func (req *ScheduleRequest) resolve() (crophe.Design, *crophe.Workload, error) {
	hw, factory, err := lookup(req.HW, req.Workload)
	if err != nil {
		return crophe.Design{}, nil, err
	}
	df, ok := sched.LookupDataflow(req.Dataflow)
	if !ok {
		return crophe.Design{}, nil, fmt.Errorf("unknown dataflow %q (want crophe or mad)", req.Dataflow)
	}
	d := crophe.CROPHEDesign(hw)
	if df == sched.DataflowMAD {
		d = crophe.MADDesign(hw)
	}
	return d, factory(crophe.RotHoisted, 0), nil
}

// chaos honours an injected panic when the server allows it; the seed is
// registered first so the 500 carries it.
func (s *Server) chaos(r *http.Request, req *ScheduleRequest) {
	if s.cfg.AllowChaos && req.ChaosPanic {
		registerSeed(r, req.Seed)
		panic(fmt.Sprintf("chaos: injected request panic (seed %d)", req.Seed))
	}
}

// handleSchedule runs the dataflow search for one workload. Without a
// deadline the evaluation goes through the single-flight schedule memo
// (identical concurrent requests coalesce); with one, the search runs
// fresh under the request context and its deterministic anytime budget,
// and an expiring request returns its best-so-far schedule with
// "partial": true.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, wl, err := req.resolve()
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.chaos(r, &req)

	ctx, cancel, deadline := s.requestBudget(r, req.DeadlineMS)
	defer cancel()

	resp := ScheduleResponse{Workload: wl.Name, HW: d.HW.Name}
	if deadline <= 0 {
		// The key names the workload canonically, so every accepted
		// spelling ("helr", "helr1024") shares one memo entry.
		sc, cached := crophe.MemoizedSchedule(d, wl.Params.Name+"/"+wl.Name+"/hoisted", wl)
		resp.fillSchedule(sc)
		resp.Cached = cached
	} else {
		sc, err := crophe.ScheduleWorkload(ctx, d, wl, deadline)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "schedule: %v", err)
			return
		}
		resp.fillSchedule(sc)
	}
	if resp.Partial {
		s.metrics.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (resp *ScheduleResponse) fillSchedule(sc *crophe.Schedule) {
	resp.TimeMS = sc.TimeSec * 1e3
	resp.Partial = sc.Partial
	resp.DRAMBytes = sc.Traffic.DRAM
	resp.SRAMBytes = sc.Traffic.SRAM
	resp.NoCBytes = sc.Traffic.NoC
}

// handleSimulate schedules and then runs the cycle-level simulator.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req ScheduleRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	d, wl, err := req.resolve()
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.chaos(r, &req)

	ctx, cancel, deadline := s.requestBudget(r, req.DeadlineMS)
	defer cancel()

	res, sc, err := crophe.SimulateWorkloadContext(ctx, d, wl, deadline)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "simulate: %v", err)
		return
	}
	resp := ScheduleResponse{Workload: wl.Name, HW: d.HW.Name}
	resp.fillSchedule(sc)
	simMS := res.TimeSec * 1e3
	resp.SimTimeMS = &simMS
	resp.SimCycles = &res.Cycles
	resp.SimEnergyJ = &res.EnergyJ
	if resp.Partial {
		s.metrics.partials.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleSimulateDegraded degrades the chip under a seeded fault plan and
// simulates crophe.DegradedDesign on it, with the request's deadline as
// the deterministic search budget (as /v1/simulate does). The seed is
// registered before the degraded stack runs, so an invariant violation
// escaping it becomes a 500 carrying the seed.
func (s *Server) handleSimulateDegraded(w http.ResponseWriter, r *http.Request) {
	var req DegradedRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hw, factory, err := lookup(req.HW, req.Workload)
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, err := crophe.ParseFaultSpec(req.Faults)
	if err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "invalid faults: %v", err)
		return
	}
	registerSeed(r, req.Seed)
	if s.cfg.AllowChaos && req.ChaosPanic {
		panic(fmt.Sprintf("chaos: injected degraded-path panic (seed %d)", req.Seed))
	}

	m, err := crophe.NewFaultMachine(hw, spec, req.Seed)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "fault machine: %v", err)
		return
	}

	ctx, cancel, deadline := s.requestBudget(r, req.DeadlineMS)
	defer cancel()
	wl := factory(crophe.RotHoisted, 0)
	res, sc, err := crophe.SimulateWorkloadContext(ctx, crophe.DegradedDesign(hw), wl, deadline,
		crophe.WithFaults(m))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "degraded simulate: %v", err)
		return
	}
	if sc.Partial {
		s.metrics.partials.Add(1)
	}
	resp := DegradedResponse{
		Workload: wl.Name, HW: hw.Name,
		Faults: spec.String(), Seed: req.Seed, FaultCount: m.Plan.FaultCount(),
		TimeMS: res.TimeSec * 1e3, Cycles: res.Cycles, Partial: sc.Partial,
	}
	if res.Integrity != nil {
		resp.Integrity = &IntegrityStats{
			Checks:        res.Integrity.Checks,
			Detected:      res.Integrity.Detected,
			Recomputed:    res.Integrity.Recomputed,
			Escalated:     res.Integrity.Escalated,
			PenaltyCycles: res.Integrity.PenaltyCycles(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

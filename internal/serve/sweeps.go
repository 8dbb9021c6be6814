package serve

import (
	"net/http"

	"crophe"
)

// statusOf renders a job for clients.
func statusOf(j *job) SweepStatus {
	state, completed, errText, result := j.snapshot()
	st := SweepStatus{
		ID:         j.params.ID,
		State:      state,
		HW:         j.params.HW,
		Workload:   j.params.Workload,
		Seed:       j.params.Seed,
		Steps:      j.params.Steps,
		DeadlineMS: j.params.DeadlineMS,
		Completed:  completed,
		Error:      errText,
	}
	if result != nil {
		st.BaselineMS = result.Baseline * 1e3
		for _, pt := range result.Points {
			st.Points = append(st.Points, SweepPointSummary{
				Step:       pt.Step,
				FracFailed: pt.FracFailed,
				FaultCount: pt.FaultCount,
				TimeMS:     pt.Outcome.TimeSec * 1e3,
				Retained:   pt.Retained(result.Baseline),
				Partial:    pt.Outcome.Partial,
				Err:        pt.Err,
			})
		}
	}
	return st
}

// handleStartSweep starts (or re-addresses) a resilience-sweep job. The
// job ID is a deterministic hash of the parameters, so retrying a POST —
// a client timeout, a load balancer replay — lands on the same job
// instead of burning a second sweep. The job itself runs asynchronously
// under the manager's lifetime, not the request's: the response is 202
// with the ID to poll.
func (s *Server) handleStartSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hw, ok := crophe.LookupHW(req.HW)
	if !ok {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "unknown hw %q", req.HW)
		return
	}
	p := crophe.DefaultParamsFor(hw)
	if _, ok := crophe.LookupWorkload(req.Workload, p, crophe.RotHoisted); !ok {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "unknown workload %q", req.Workload)
		return
	}
	if req.Steps < 2 || req.Steps > 256 {
		s.metrics.badInput.Add(1)
		writeError(w, http.StatusBadRequest, "steps must be in [2, 256], got %d", req.Steps)
		return
	}
	params := sweepParams{
		V: 1, HW: req.HW, Workload: req.Workload,
		Seed: req.Seed, Steps: req.Steps, DeadlineMS: req.DeadlineMS,
	}
	params.ID = sweepID(params)

	j, created, err := s.jobs.start(params)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	st := statusOf(j)
	st.Created = &created
	writeJSON(w, http.StatusAccepted, st)
}

// handleGetSweep reports a sweep job: its state, how many rungs have
// been checkpointed, and — once done — the full retained-throughput
// curve. Deliberately outside the admission pipeline: polling a job
// must stay cheap and must work while the server sheds compute load.
func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no sweep job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, statusOf(j))
}

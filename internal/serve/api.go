package serve

// Wire types of the crophe-serve HTTP/JSON API, shared by the server
// handlers and the typed Client. Field tags are the API; renaming a tag
// is a breaking change.

// ScheduleRequest is the body of POST /v1/schedule and POST /v1/simulate.
type ScheduleRequest struct {
	HW         string `json:"hw"`
	Workload   string `json:"workload"`
	Dataflow   string `json:"dataflow,omitempty"`    // "crophe" (default) or "mad"
	DeadlineMS int    `json:"deadline_ms,omitempty"` // anytime search budget; header wins
	ChaosPanic bool   `json:"chaos_panic,omitempty"` // AllowChaos only: panic on purpose
	Seed       int64  `json:"seed,omitempty"`        // replay seed stamped into chaos 500s
}

// ScheduleResponse summarises a schedule (and optionally a simulation).
type ScheduleResponse struct {
	Workload   string   `json:"workload"`
	HW         string   `json:"hw"`
	TimeMS     float64  `json:"time_ms"`
	Partial    bool     `json:"partial"`
	Cached     bool     `json:"cached,omitempty"`
	DRAMBytes  float64  `json:"dram_bytes"`
	SRAMBytes  float64  `json:"sram_bytes"`
	NoCBytes   float64  `json:"noc_bytes"`
	SimTimeMS  *float64 `json:"sim_time_ms,omitempty"`
	SimCycles  *float64 `json:"sim_cycles,omitempty"`
	SimEnergyJ *float64 `json:"sim_energy_j,omitempty"`
}

// DegradedRequest is the body of POST /v1/simulate-degraded.
type DegradedRequest struct {
	HW         string `json:"hw"`
	Workload   string `json:"workload"`
	Faults     string `json:"faults"` // fault.Spec grammar
	Seed       int64  `json:"seed"`
	DeadlineMS int    `json:"deadline_ms,omitempty"`
	ChaosPanic bool   `json:"chaos_panic,omitempty"`
}

// DegradedResponse reports a degraded run plus throughput retained.
// Integrity is present only when the fault spec injected silent data
// corruption (flip:R) — the priced detect → recompute → escalate
// outcome, whose cycle penalty is already folded into Cycles.
type DegradedResponse struct {
	Workload   string          `json:"workload"`
	HW         string          `json:"hw"`
	Faults     string          `json:"faults"`
	Seed       int64           `json:"seed"`
	FaultCount int             `json:"fault_count"`
	TimeMS     float64         `json:"time_ms"`
	Cycles     float64         `json:"cycles"`
	Partial    bool            `json:"partial"`
	Integrity  *IntegrityStats `json:"integrity,omitempty"`
}

// IntegrityStats is the wire form of the data-plane integrity outcome:
// checked units, detections, bounded recomputes, escalations to bank
// quarantine, and the recovery's total cycle cost.
type IntegrityStats struct {
	Checks        float64 `json:"checks"`
	Detected      float64 `json:"detected"`
	Recomputed    float64 `json:"recomputed"`
	Escalated     float64 `json:"escalated"`
	PenaltyCycles float64 `json:"penalty_cycles"`
}

// SweepRequest is the body of POST /v1/sweeps.
type SweepRequest struct {
	HW         string `json:"hw"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Steps      int    `json:"steps"`                 // rung count, in [2, 256]
	DeadlineMS int    `json:"deadline_ms,omitempty"` // per-rung anytime budget
}

// SweepPointSummary is one journaled rung rendered for clients. TimeMS
// is a display value (TimeSec × 1e3); the checkpoint journal keeps the
// exact point.
type SweepPointSummary struct {
	Step       int     `json:"step"`
	FracFailed float64 `json:"frac_failed"`
	FaultCount int     `json:"fault_count"`
	TimeMS     float64 `json:"time_ms"`
	Retained   float64 `json:"retained"`
	Partial    bool    `json:"partial"`
	Err        string  `json:"error,omitempty"`
}

// SweepStatus is the GET /v1/sweeps/{id} response (and the POST
// response, minus points while running).
type SweepStatus struct {
	ID         string              `json:"id"`
	State      string              `json:"state"`
	HW         string              `json:"hw"`
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Steps      int                 `json:"steps"`
	DeadlineMS int                 `json:"deadline_ms,omitempty"`
	Completed  int                 `json:"completed_steps"`
	Created    *bool               `json:"created,omitempty"` // POST only
	Error      string              `json:"error,omitempty"`
	BaselineMS float64             `json:"baseline_ms,omitempty"`
	Points     []SweepPointSummary `json:"points,omitempty"`
}

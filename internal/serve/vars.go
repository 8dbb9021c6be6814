package serve

import (
	"net/http"
	"sync/atomic"

	"crophe"
)

// metrics is the serving layer's own counter set — plain atomics on the
// request path.
type metrics struct {
	requests  atomic.Uint64 // admitted and executed
	shed      atomic.Uint64 // rejected with 429
	rejected  atomic.Uint64 // rejected with 503 during drain
	panics    atomic.Uint64 // recovered handler panics
	partials  atomic.Uint64 // responses carrying partial: true
	badInput  atomic.Uint64 // 4xx other than shedding
	queueWait atomic.Uint64 // requests that waited for a slot (vs fast-path)
}

// handleVars is the /debug/vars-style observability endpoint: admission
// state, request counters, schedule-memo hit rates and sweep counts.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	memo := crophe.ScheduleMemoStats()
	running, done := s.jobs.counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"admission": map[string]any{
			"workers":     s.queue.Cap(),
			"in_use":      s.queue.InUse(),
			"queue_depth": s.cfg.QueueDepth,
			"waiting":     s.waiting.Load(),
			"shedding":    s.shedding.Load(),
		},
		"requests": map[string]any{
			"served":      s.metrics.requests.Load(),
			"shed":        s.metrics.shed.Load(),
			"rejected":    s.metrics.rejected.Load(),
			"panics":      s.metrics.panics.Load(),
			"partial":     s.metrics.partials.Load(),
			"bad_input":   s.metrics.badInput.Load(),
			"queue_waits": s.metrics.queueWait.Load(),
		},
		"schedule_memo": map[string]any{
			"hits":      memo.Hits,
			"misses":    memo.Misses,
			"evictions": memo.Evictions,
			"size":      memo.Size,
			"capacity":  memo.Capacity,
			"hit_rate":  memo.HitRate(),
		},
		"sweeps": map[string]any{
			"running": running,
			"done":    done,
		},
	})
}

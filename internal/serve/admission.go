package serve

import (
	"context"
	"net/http"
	"strconv"
)

// admit is the admission-control middleware: a bounded wait queue in
// front of the shared worker slots, load shedding once the queue fills,
// and hysteresis so shedding does not flap.
//
// The mechanics: waiting counts requests that have arrived but not yet
// acquired a worker slot. When waiting exceeds QueueDepth the server
// latches into shedding and answers 429 with Retry-After; it stays
// latched until waiting falls to half the depth (the low-water mark).
// Between high and low water, requests queue with a wait bounded by
// QueueWait — a slot freeing admits the longest waiter; a timeout sheds.
//
// Two deliberate choices:
//
//   - An already-expired *client* deadline does not shed the request if a
//     slot is free: deadline handling belongs to the scheduler's anytime
//     search, which turns it into a partial schedule, not an error.
//   - Drain rejections are 503 (the instance is going away), shedding is
//     429 (the instance is overloaded; retry here later). Load balancers
//     treat the two differently.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			s.metrics.rejected.Add(1)
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}

		n := s.waiting.Add(1)
		if n > int64(s.cfg.QueueDepth) {
			s.shedding.Store(true)
		}
		if s.shedding.Load() {
			s.leaveQueue()
			s.shed(w)
			return
		}

		waitCtx, cancel := context.WithTimeout(r.Context(), s.cfg.QueueWait)
		defer cancel()
		release, fast, err := s.acquireSlot(waitCtx)
		// Holding a slot (or giving up on one) ends the wait: from here on
		// the request no longer counts against the queue depth.
		s.leaveQueue()
		if err != nil {
			if r.Context().Err() != nil {
				// The client went away while queued; nothing useful to
				// write.
				return
			}
			s.shed(w)
			return
		}
		defer release()
		if !fast {
			s.metrics.queueWait.Add(1)
		}
		s.metrics.requests.Add(1)
		next.ServeHTTP(w, r)
	})
}

// leaveQueue takes one request off the wait queue — it acquired a slot,
// was shed, or timed out — and clears the shedding latch once the
// backlog has fallen to the low-water mark (half the depth). Latching
// until here, rather than the instant waiting < depth, keeps the
// 429/accept boundary from flapping under a steady near-saturating
// arrival rate.
func (s *Server) leaveQueue() {
	if s.waiting.Add(-1) <= int64(s.cfg.QueueDepth/2) {
		s.shedding.Store(false)
	}
}

// acquireSlot takes a worker slot, reporting whether the fast
// (uncontended) path succeeded.
func (s *Server) acquireSlot(ctx context.Context) (func(), bool, error) {
	if release, ok := s.queue.TryAcquire(); ok {
		return release, true, nil
	}
	release, err := s.queue.Acquire(ctx)
	return release, false, err
}

// shed writes the load-shedding response: 429 with a Retry-After hint
// sized to the queue-wait budget plus deterministic jitter (seeded by
// RetryJitterSeed), so well-behaved clients back off for about as long
// as a queued request would have waited — and a burst of clients shed in
// the same instant does not return as the same stampede one hint later.
func (s *Server) shed(w http.ResponseWriter) {
	s.metrics.shed.Add(1)
	retry := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeError(w, http.StatusTooManyRequests, "overloaded: admission queue is full, retry after %d s", retry)
}

// retryAfterSeconds sizes the Retry-After hint: the queue-wait budget
// (floor 1s) plus up to half that again in seeded jitter. Deterministic
// per RetryJitterSeed — the same seed yields the same hint sequence,
// which keeps robustness tests replayable.
func (s *Server) retryAfterSeconds() int {
	base := int(s.cfg.QueueWait.Seconds())
	if base < 1 {
		base = 1
	}
	s.jitterMu.Lock()
	jitter := s.jitterRand.Intn(base/2 + 1)
	s.jitterMu.Unlock()
	return base + jitter
}

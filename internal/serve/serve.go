// Package serve is the production serving layer of the CROPHE stack: a
// long-running, single-process HTTP/JSON service exposing the façade's
// schedule, simulate, degraded-simulate and resilience-sweep operations,
// hardened for sustained load the way the modelled hardware is hardened
// for faults.
//
// Robustness is composed as middleware over the façade, in order:
//
//		admission → deadline propagation → panic isolation → handler
//
//	  - Admission control bounds concurrency with a parallel.Queue that
//	    shares the worker pool's token budget, queues excess arrivals up to
//	    a bounded depth with a wait timeout, and sheds load (HTTP 429 +
//	    Retry-After) once the queue fills — with hysteresis so shedding
//	    does not flap at the boundary.
//	  - Deadline propagation turns a per-request deadline (the
//	    X-Crophe-Deadline header or a deadline_ms JSON field) into a
//	    context deadline and the scheduler's deterministic anytime budget
//	    (sched.Options.SearchBudget via sched.Design.Options): an expiring
//	    request returns a best-so-far schedule marked "partial": true, not
//	    an error.
//	  - Panic isolation recovers per-request panics into structured 500
//	    responses carrying the fault seed (the resilience.go
//	    recoverFaultPanic convention) while the process keeps serving.
//	  - Graceful shutdown flips /readyz, rejects new work with 503, drains
//	    in-flight requests and sweep jobs under a drain deadline, and
//	    leaves no goroutines behind.
//	  - Long resilience sweeps run asynchronously behind a job API
//	    (POST /v1/sweeps, GET /v1/sweeps/{id}) that journals each completed
//	    rung to an append-only, CRC-framed checkpoint file, so a
//	    crashed-and-restarted server resumes from the last completed rung
//	    (quarantining any corrupt suffix) and finishes byte-identical to an
//	    uninterrupted run.
//
// See the "Serving architecture" section of DESIGN.md.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"crophe/internal/parallel"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving-safe default applied by New.
type Config struct {
	// Addr is the listen address (host:port). Default ":8080"; use
	// "127.0.0.1:0" in tests for an ephemeral port.
	Addr string
	// Workers bounds concurrently executing requests. 0 means the worker
	// pool size; the admission queue shares the pool's token budget either
	// way, so compute fan-out inside requests never oversubscribes.
	Workers int
	// QueueDepth bounds how many requests may wait for a worker slot
	// before new arrivals are shed with 429. Default 64.
	QueueDepth int
	// QueueWait bounds how long an admitted-to-the-queue request may wait
	// for a worker slot before it is shed. Default 5s.
	QueueWait time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests and
	// in-flight sweep rungs get this long to finish. Default 15s.
	DrainTimeout time.Duration
	// CheckpointDir is where sweep jobs journal completed rungs. Empty
	// disables persistence (jobs still run, but do not survive restarts).
	CheckpointDir string
	// AllowChaos honours the chaos_panic request field, which makes a
	// handler panic on purpose — the chaos-acceptance hook. Never enable
	// outside tests and smoke drills.
	AllowChaos bool
}

// retryJitterSeed seeds the deterministic jitter added to 429
// Retry-After hints, decorrelating the retry stampede of clients shed in
// the same instant while keeping the hint sequence replayable.
const retryJitterSeed = 1

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers < 1 {
		c.Workers = parallel.Workers()
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	return c
}

// Server is one crophe-serve instance.
type Server struct {
	cfg     Config
	queue   *parallel.Queue
	metrics metrics
	jobs    *jobManager

	// jitterRand drives the deterministic Retry-After jitter; guarded by
	// jitterMu because rand.Rand is not concurrency-safe.
	jitterMu   sync.Mutex
	jitterRand *rand.Rand

	// Admission state: waiting counts requests between arrival and slot
	// acquisition; shedding latches once the wait queue fills and clears
	// only at the hysteresis low-water mark.
	waiting  atomic.Int64
	shedding atomic.Bool

	httpSrv  *http.Server
	listener net.Listener

	mu       sync.Mutex
	draining bool
}

// New builds a Server (not yet listening) from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		queue:      parallel.NewSharedQueue(cfg.Workers),
		jitterRand: rand.New(rand.NewSource(retryJitterSeed)),
	}
	s.jobs = newJobManager(cfg.CheckpointDir)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.Handle("POST /v1/schedule", s.pipeline(s.handleSchedule))
	mux.Handle("POST /v1/simulate", s.pipeline(s.handleSimulate))
	mux.Handle("POST /v1/simulate-degraded", s.pipeline(s.handleSimulateDegraded))
	mux.Handle("POST /v1/sweeps", s.pipeline(s.handleStartSweep))
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)

	s.httpSrv = &http.Server{Handler: mux}
	return s
}

// pipeline stacks the serving middleware over a handler in the
// documented order: admission first (cheap rejection before any work),
// then deadline propagation, then panic isolation closest to the
// handler.
func (s *Server) pipeline(h http.HandlerFunc) http.Handler {
	return s.admit(s.withDeadline(s.isolate(h)))
}

// Start binds the listener and begins serving in a background goroutine.
// Unfinished checkpointed sweep jobs found in CheckpointDir are resumed
// before the listener opens, so /v1/sweeps/{id} is consistent from the
// first request.
func (s *Server) Start() error {
	if err := s.jobs.recover(); err != nil {
		return fmt.Errorf("serve: recovering checkpointed sweeps: %w", err)
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.listener = ln
	go func() {
		// ErrServerClosed is the normal shutdown signal; anything else
		// surfaces through the health endpoints going dark.
		_ = s.httpSrv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address (resolving ":0" ports). Empty
// before Start.
func (s *Server) Addr() string {
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Shutdown drains the server: readiness flips immediately (load
// balancers stop routing, new requests get 503), in-flight requests and
// in-flight sweep rungs get up to DrainTimeout to finish, then the
// listener closes. Safe to call once; returns the drain error if the
// deadline expired with work still in flight.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()

	// Stop sweep jobs first: their journals make interruption safe. No
	// rung starts or is committed after cancellation; in-flight rungs run
	// to completion and are dropped (a restart recomputes them
	// byte-identically), or the process exits at the drain deadline with
	// the journal intact.
	jobsDone := s.jobs.stop()
	err := s.httpSrv.Shutdown(ctx)
	select {
	case <-jobsDone:
	case <-ctx.Done():
		if err == nil {
			err = fmt.Errorf("serve: sweep jobs still draining at the deadline: %w", ctx.Err())
		}
	}
	return err
}

// draining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleHealthz is liveness: the process is up and the mux is serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: 200 while accepting work, 503 during drain
// so load balancers stop routing before in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// writeJSON encodes v in one shot after the handler finished computing,
// so a mid-handler panic never leaves a half-written body — the recovery
// middleware still owns the response line.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, format string, a ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, a...)})
}

// decodeJSON decodes a request body into v with unknown-field rejection:
// a typo in a field name should be a 400, not a silently ignored knob.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}

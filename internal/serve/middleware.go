package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"crophe/internal/cliutil"
)

// DeadlineHeader carries a per-request deadline as a Go duration
// ("150ms", "2s"). A deadline_ms field in the JSON body is the
// equivalent for clients that cannot set headers; the header wins when
// both are present.
const DeadlineHeader = "X-Crophe-Deadline"

// reqState is the per-request holder the middleware threads through the
// context: the declared deadline (the duration the client asked for, not
// the remaining wall clock — the deterministic input to
// sched.Design.Options) and the fault seed a handler registers before doing
// anything that can panic, so the recovery middleware can stamp it into
// the 500 response.
type reqState struct {
	mu       sync.Mutex
	deadline time.Duration
	seed     int64
	hasSeed  bool
}

type reqStateKey struct{}

// stateFrom returns the request's state holder (nil outside the
// middleware pipeline, e.g. in unit tests that call handlers directly).
func stateFrom(r *http.Request) *reqState {
	st, _ := r.Context().Value(reqStateKey{}).(*reqState)
	return st
}

// withDeadline parses the deadline header, arms the request context with
// it, and installs the per-request state holder. Handlers that find a
// deadline_ms field in their body call armBodyDeadline to apply it after
// decoding. A malformed header is a 400 — silently running an unbounded
// search against a garbled deadline is the worse failure.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := &reqState{}
		ctx := context.WithValue(r.Context(), reqStateKey{}, st)

		if h := r.Header.Get(DeadlineHeader); h != "" {
			d, err := cliutil.ParseDeadline(h)
			if err != nil {
				s.metrics.badInput.Add(1)
				writeError(w, http.StatusBadRequest, "invalid %s header: %v", DeadlineHeader, err)
				return
			}
			st.deadline = d
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// requestBudget returns the context and declared deadline the scheduler
// should run under, folding in a per-request deadline_ms body field (in
// effect only when no header already armed one). The returned context is
// always derived from r.Context(), so client disconnects and the drain
// path propagate; the returned duration is the deterministic
// sched.Design.Options input. cancel is non-nil always.
func (s *Server) requestBudget(r *http.Request, bodyDeadlineMS int) (context.Context, context.CancelFunc, time.Duration) {
	st := stateFrom(r)
	var declared time.Duration
	if st != nil {
		st.mu.Lock()
		declared = st.deadline
		st.mu.Unlock()
	}
	if declared > 0 || bodyDeadlineMS <= 0 {
		// Header already armed the context (or no deadline at all).
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, declared
	}
	d := time.Duration(bodyDeadlineMS) * time.Millisecond
	if st != nil {
		st.mu.Lock()
		st.deadline = d
		st.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, d
}

// registerSeed records the fault seed a handler is about to work under,
// so a panic escaping the degraded stack is reported with the one number
// that replays it.
func registerSeed(r *http.Request, seed int64) {
	if st := stateFrom(r); st != nil {
		st.mu.Lock()
		st.seed = seed
		st.hasSeed = true
		st.mu.Unlock()
	}
}

// isolate is the panic-isolation middleware: a panic escaping a handler
// — an invariant violation some fault combination exposed — becomes a
// structured 500 carrying the fault seed (the recoverFaultPanic
// convention from the façade), and the process keeps serving. Handlers
// buffer their responses (writeJSON writes in one shot at the end), so
// at the recovery point the response line is still ours to write.
func (s *Server) isolate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			s.metrics.panics.Add(1)
			body := map[string]any{"panic": true}
			if st := stateFrom(r); st != nil {
				st.mu.Lock()
				seed, has := st.seed, st.hasSeed
				st.mu.Unlock()
				if has {
					body["fault_seed"] = seed
					body["error"] = fmtInvariant(seed, rec)
					writeJSON(w, http.StatusInternalServerError, body)
					return
				}
			}
			body["error"] = fmtPanic(rec)
			writeJSON(w, http.StatusInternalServerError, body)
		}()
		next.ServeHTTP(w, r)
	})
}

// fmtInvariant renders a recovered fault-path panic in the
// recoverFaultPanic convention: the seed is the replay handle.
func fmtInvariant(seed int64, rec any) string {
	return fmt.Sprintf("invariant violation under fault seed %d: %v", seed, rec)
}

// fmtPanic renders a recovered panic with no registered seed.
func fmtPanic(rec any) string {
	return fmt.Sprintf("internal panic: %v", rec)
}

package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crophe/internal/cliutil"
	"crophe/internal/leakcheck"
)

// stub builds an httptest server whose handler the test controls, plus a
// Client pointed at it with fast, bounded retries.
func stub(t *testing.T, h http.HandlerFunc, opts ...ClientOption) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, opts...), ts
}

func TestClientDeadlineHeaderFromContext(t *testing.T) {
	var got atomic.Value
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(DeadlineHeader))
		writeJSON(w, http.StatusOK, ScheduleResponse{})
	})

	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	if _, err := c.Schedule(ctx, ScheduleRequest{HW: "crophe64", Workload: "helr"}); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	h, _ := got.Load().(string)
	if h == "" {
		t.Fatalf("no %s header sent for a deadline-carrying context", DeadlineHeader)
	}
	d, err := cliutil.ParseDeadline(h)
	if err != nil {
		t.Fatalf("header %q does not parse with the server's own parser: %v", h, err)
	}
	if d <= 0 || d > 250*time.Millisecond {
		t.Fatalf("header deadline %v outside (0, 250ms]", d)
	}

	// No context deadline → no header.
	got.Store("unset")
	if _, err := c.Schedule(context.Background(), ScheduleRequest{}); err != nil {
		t.Fatalf("Schedule without deadline: %v", err)
	}
	if h, _ := got.Load().(string); h != "" {
		t.Fatalf("header sent without a context deadline: %q", h)
	}
}

func TestClientTypedShedError(t *testing.T) {
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		writeError(w, http.StatusTooManyRequests, "overloaded: admission queue is full")
	}, WithRetry(0, 0, 0))

	_, err := c.Schedule(context.Background(), ScheduleRequest{})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %T %v; want *ShedError", err, err)
	}
	if shed.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v; want 7s", shed.RetryAfter)
	}
	if shed.Message == "" {
		t.Fatalf("ShedError lost the server message")
	}
}

func TestClientTypedUnavailableError(t *testing.T) {
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	}, WithRetry(0, 0, 0))

	err := c.Ready(context.Background())
	var unavail *UnavailableError
	if !errors.As(err, &unavail) {
		t.Fatalf("err = %T %v; want *UnavailableError", err, err)
	}
}

func TestClientAPIErrorCarriesFaultSeed(t *testing.T) {
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		seed := int64(99)
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error": fmtInvariant(seed, "boom"), "panic": true, "fault_seed": seed,
		})
	})

	_, err := c.Schedule(context.Background(), ScheduleRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %T %v; want *APIError", err, err)
	}
	if apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("Status = %d; want 500", apiErr.Status)
	}
	if apiErr.FaultSeed == nil || *apiErr.FaultSeed != 99 {
		t.Fatalf("FaultSeed = %v; want 99", apiErr.FaultSeed)
	}
}

func TestClientRetriesShedThenSucceeds(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			writeError(w, http.StatusTooManyRequests, "overloaded")
			return
		}
		writeJSON(w, http.StatusOK, ScheduleResponse{Workload: "helr"})
	}, WithRetry(3, time.Millisecond, 5*time.Millisecond))

	resp, err := c.Schedule(context.Background(), ScheduleRequest{})
	if err != nil {
		t.Fatalf("Schedule after retries: %v", err)
	}
	if resp.Workload != "helr" {
		t.Fatalf("response = %+v; want the success body", resp)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls; want 3 (two sheds + success)", n)
	}
}

func TestClientRetryGivesUpAtBudget(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusTooManyRequests, "overloaded")
	}, WithRetry(2, time.Millisecond, 2*time.Millisecond))

	_, err := c.Schedule(context.Background(), ScheduleRequest{})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %T %v; want *ShedError after exhausting retries", err, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("server saw %d calls; want 3 (initial + 2 retries)", n)
	}
}

func TestClientNoRetryOnAPIError(t *testing.T) {
	var calls atomic.Int64
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeError(w, http.StatusBadRequest, "unknown hw")
	}, WithRetry(5, time.Millisecond, 2*time.Millisecond))

	if _, err := c.Schedule(context.Background(), ScheduleRequest{}); err == nil {
		t.Fatalf("expected an error for a 400")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls; want 1 (4xx must not be retried)", n)
	}
}

func TestClientContextCancelAbortsRetries(t *testing.T) {
	leakcheck.Check(t)
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusTooManyRequests, "overloaded")
	}, WithRetry(1000, 50*time.Millisecond, 50*time.Millisecond))

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Schedule(ctx, ScheduleRequest{})
	if err == nil {
		t.Fatalf("expected an error after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled call took %v; the retry loop ignored the context", elapsed)
	}
}

func TestClientAgainstRealServer(t *testing.T) {
	s := startServer(t, Config{})
	c := NewClient(s.Addr())

	if err := c.Ready(context.Background()); err != nil {
		t.Fatalf("Ready: %v", err)
	}
	resp, err := c.Schedule(context.Background(), ScheduleRequest{HW: "crophe64", Workload: "helr"})
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if resp.TimeMS <= 0 || resp.Partial {
		t.Fatalf("Schedule = %+v; want a full positive-time schedule", resp)
	}
	deg, err := c.SimulateDegraded(context.Background(), DegradedRequest{
		HW: "crophe64", Workload: "helr", Faults: "rows:1,links:2", Seed: 13,
	})
	if err != nil {
		t.Fatalf("SimulateDegraded: %v", err)
	}
	if deg.FaultCount < 1 {
		t.Fatalf("SimulateDegraded injected %d faults; want >= 1", deg.FaultCount)
	}

	// Unknown hardware surfaces as a typed 400, not an opaque failure.
	_, err = c.Schedule(context.Background(), ScheduleRequest{HW: "nope", Workload: "helr"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("unknown hw err = %T %v; want *APIError 400", err, err)
	}
}

// TestClientBackoffRespectsDeadlineBudget: a Retry-After hint larger
// than the context deadline's remaining budget means the retry cannot
// possibly land; the client must return the error now instead of
// sleeping the caller's deadline away.
func TestClientBackoffRespectsDeadlineBudget(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	c, _ := stub(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "overloaded")
	}, WithRetry(10, 10*time.Millisecond, 10*time.Second))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Schedule(ctx, ScheduleRequest{})
	elapsed := time.Since(start)

	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %T %v; want *ShedError", err, err)
	}
	if elapsed > time.Second {
		t.Fatalf("deadline-doomed retry slept %v; want an immediate return", elapsed)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("server saw %d calls; the 5s hint exceeds the 2s budget after the first", n)
	}
}

// flakyTransport fails the first n round trips at the transport level —
// the connection dropped before any response — then forwards.
type flakyTransport struct {
	n     atomic.Int64
	inner http.RoundTripper
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if f.n.Add(-1) >= 0 {
		return nil, errors.New("flaky transport: connection dropped")
	}
	return f.inner.RoundTrip(r)
}

// TestClientRetriesThroughChaosTransport: the retry loop rides out
// transport-level failures (no HTTP answer at all) and lands the request
// once the link recovers.
func TestClientRetriesThroughChaosTransport(t *testing.T) {
	leakcheck.Check(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusOK, ScheduleResponse{Workload: "helr"})
	}))
	t.Cleanup(ts.Close)

	tr := &flakyTransport{inner: http.DefaultTransport}
	tr.n.Store(3)
	hc := &http.Client{Transport: tr}
	t.Cleanup(hc.CloseIdleConnections)
	c := NewClient(ts.URL, WithHTTPClient(hc), WithRetry(5, time.Millisecond, 5*time.Millisecond))
	resp, err := c.Schedule(context.Background(), ScheduleRequest{})
	if err != nil {
		t.Fatalf("Schedule through flaky transport: %v", err)
	}
	if resp.Workload != "helr" {
		t.Fatalf("response %+v; want the success body", resp)
	}
	if calls.Load() != 1 {
		t.Fatalf("server saw %d calls; want 1 (three dropped, the fourth lands)", calls.Load())
	}
}

func TestRetryAfterJitterDeterministic(t *testing.T) {
	mk := func(seed int64) []int {
		s := New(Config{RetryJitterSeed: seed})
		out := make([]int, 8)
		for i := range out {
			out[i] = s.retryAfterSeconds()
		}
		return out
	}
	a, b := mk(7), mk(7)
	base := int((Config{}.withDefaults()).QueueWait.Seconds())
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
		if a[i] < base || a[i] > base+base/2 {
			t.Fatalf("hint %d outside [%d, %d]: %v", a[i], base, base+base/2, a)
		}
		if a[i] != a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("jitter produced a constant sequence %v; want variation", a)
	}
}

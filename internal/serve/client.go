package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the typed client of the crophe-serve API. It maps context
// deadlines onto the X-Crophe-Deadline header (so the server's anytime
// budget matches the caller's patience), turns the 429/503 shed and
// drain responses into typed errors carrying their Retry-After hints,
// and retries retryable failures with bounded exponential backoff.
// Scripts and external tools should use it instead of hand-rolling
// net/http calls.
type Client struct {
	base        string
	hc          *http.Client
	maxRetries  int
	backoffBase time.Duration
	backoffCap  time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithRetry sets the retry budget: up to retries re-attempts after the
// first try, sleeping min(cap, base<<attempt) between them (a larger
// server Retry-After hint extends the sleep, still bounded by cap).
// WithRetry(0, ...) disables retries.
func WithRetry(retries int, base, cap time.Duration) ClientOption {
	return func(c *Client) {
		c.maxRetries = retries
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// NewClient returns a Client for the server at base ("host:port" or a
// full http:// URL). Defaults: http.DefaultClient-like transport with no
// overall timeout (per-call contexts bound each request), 3 retries,
// 100ms base backoff capped at 2s.
func NewClient(base string, opts ...ClientOption) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		hc:          &http.Client{},
		maxRetries:  3,
		backoffBase: 100 * time.Millisecond,
		backoffCap:  2 * time.Second,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// APIError is a non-retryable error response (4xx/5xx outside the
// shed/drain protocol). FaultSeed is set when the server's panic
// isolation stamped the replaying fault seed into the 500.
type APIError struct {
	Status    int
	Message   string
	FaultSeed *int64
}

func (e *APIError) Error() string {
	if e.FaultSeed != nil {
		return fmt.Sprintf("serve: HTTP %d: %s (fault seed %d)", e.Status, e.Message, *e.FaultSeed)
	}
	return fmt.Sprintf("serve: HTTP %d: %s", e.Status, e.Message)
}

// ShedError is the 429 load-shedding response: the instance is
// overloaded and asks the caller to retry here after RetryAfter.
type ShedError struct {
	RetryAfter time.Duration
	Message    string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded (retry after %s): %s", e.RetryAfter, e.Message)
}

// UnavailableError is the 503 drain response: the instance is going
// away; callers should route elsewhere.
type UnavailableError struct {
	RetryAfter time.Duration
	Message    string
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("serve: unavailable: %s", e.Message)
}

// errBody is the uniform error envelope (plus the panic-isolation
// extras).
type errBody struct {
	Error     string `json:"error"`
	Panic     bool   `json:"panic,omitempty"`
	FaultSeed *int64 `json:"fault_seed,omitempty"`
}

// decodeError turns a non-2xx response into its typed error.
func decodeError(resp *http.Response, body []byte) error {
	var eb errBody
	_ = json.Unmarshal(body, &eb)
	msg := eb.Error
	if msg == "" {
		msg = strings.TrimSpace(string(body))
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests:
		return &ShedError{RetryAfter: retryAfter(resp), Message: msg}
	case http.StatusServiceUnavailable:
		return &UnavailableError{RetryAfter: retryAfter(resp), Message: msg}
	}
	return &APIError{Status: resp.StatusCode, Message: msg, FaultSeed: eb.FaultSeed}
}

// retryAfter parses the integer-seconds Retry-After hint (0 if absent).
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if sec, err := strconv.Atoi(v); err == nil && sec >= 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}

// retryable reports whether err is worth re-attempting: shed (the
// backlog clears), drain (a restarting server comes back), or a
// transport failure (the peer died mid-connection).
func retryable(err error) bool {
	switch err.(type) {
	case *ShedError, *UnavailableError:
		return true
	case *APIError:
		return false
	}
	return err != nil
}

// do runs one HTTP exchange: marshal, stamp the context deadline into
// X-Crophe-Deadline, decode into out (ignored when nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("serve: encoding %s %s: %w", method, path, err)
		}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("serve: building %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		// The header carries the declared budget, not the wall clock:
		// round to the millisecond the server's deterministic bucketing
		// works in, and never send a zero/negative duration.
		d := time.Until(dl).Round(time.Millisecond)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		req.Header.Set(DeadlineHeader, d.String())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("serve: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("serve: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// doRetry wraps do with the retry budget. The request body is a value
// (re-marshalled per attempt), so replays are safe by construction.
// The sleep between attempts is capped by the context deadline's
// remaining budget — a Retry-After hint larger than the caller's
// patience means the retry cannot possibly land, so give up now instead
// of sleeping the deadline away.
func (c *Client) doRetry(ctx context.Context, method, path string, in, out any) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = c.do(ctx, method, path, in, out)
		if err == nil || !retryable(err) || attempt >= c.maxRetries {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		wait := c.backoff(attempt, err)
		if dl, ok := ctx.Deadline(); ok {
			if remaining := time.Until(dl); wait >= remaining {
				return err
			}
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// backoff sizes the sleep before re-attempt: exponential from the base,
// extended by a larger server Retry-After hint, always bounded by the
// cap.
func (c *Client) backoff(attempt int, err error) time.Duration {
	wait := c.backoffBase << uint(attempt)
	if wait > c.backoffCap || wait <= 0 {
		wait = c.backoffCap
	}
	var hint time.Duration
	switch e := err.(type) {
	case *ShedError:
		hint = e.RetryAfter
	case *UnavailableError:
		hint = e.RetryAfter
	}
	if hint > wait {
		wait = hint
	}
	if wait > c.backoffCap {
		wait = c.backoffCap
	}
	return wait
}

// Ready probes /readyz with no retries — a readiness probe that retries
// its way past a dying server defeats its purpose. A draining server
// surfaces as *UnavailableError.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Schedule runs the dataflow search for one workload
// (POST /v1/schedule). A context deadline becomes the server's anytime
// search budget; an expiring one returns a best-so-far schedule with
// Partial set, not an error.
func (c *Client) Schedule(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	var out ScheduleResponse
	if err := c.doRetry(ctx, http.MethodPost, "/v1/schedule", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Simulate schedules and runs the cycle-level simulator
// (POST /v1/simulate).
func (c *Client) Simulate(ctx context.Context, req ScheduleRequest) (*ScheduleResponse, error) {
	var out ScheduleResponse
	if err := c.doRetry(ctx, http.MethodPost, "/v1/simulate", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SimulateDegraded degrades the chip under a seeded fault plan and
// simulates (POST /v1/simulate-degraded).
func (c *Client) SimulateDegraded(ctx context.Context, req DegradedRequest) (*DegradedResponse, error) {
	var out DegradedResponse
	if err := c.doRetry(ctx, http.MethodPost, "/v1/simulate-degraded", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StartSweep starts (or re-addresses — the job ID is deterministic in
// the parameters) an asynchronous resilience sweep (POST /v1/sweeps).
func (c *Client) StartSweep(ctx context.Context, req SweepRequest) (*SweepStatus, error) {
	var out SweepStatus
	if err := c.doRetry(ctx, http.MethodPost, "/v1/sweeps", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SweepStatus polls a sweep job (GET /v1/sweeps/{id}).
func (c *Client) SweepStatus(ctx context.Context, id string) (*SweepStatus, error) {
	var out SweepStatus
	if err := c.doRetry(ctx, http.MethodGet, "/v1/sweeps/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

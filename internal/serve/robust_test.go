package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// postRaw posts one JSON body and classifies the response; unlike doJSON
// it returns transport errors instead of failing the test, so the load
// tests can assert "zero lost" explicitly.
func postRaw(client *http.Client, url string, body any, headers map[string]string) (int, map[string]any, http.Header, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, resp.Header, fmt.Errorf("decoding %d response: %w", resp.StatusCode, err)
	}
	return resp.StatusCode, out, resp.Header, nil
}

// TestBurstSheddingZeroLost: a burst far beyond the queue depth must
// split cleanly into served (200) and shed (429 + Retry-After) — every
// request gets a definite answer, none hang, none drop — and once the
// burst clears, hysteresis releases the latch and the next request is
// admitted again.
func TestBurstSheddingZeroLost(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueDepth: 2, QueueWait: 30 * time.Millisecond})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := fmtURL(s, "/v1/simulate") // simulate skips the memo: every request does real work

	const burst = 30
	type outcome struct {
		code int
		hdr  http.Header
		err  error
	}
	results := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr, err := postRaw(client, url,
				map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
			results[i] = outcome{code, hdr, err}
		}(i)
	}
	wg.Wait()

	served, shed := 0, 0
	for i, r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("request %d lost: %v", i, r.err)
		case r.code == 200:
			served++
		case r.code == 429:
			shed++
			if r.hdr.Get("Retry-After") == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
		default:
			t.Fatalf("request %d: unexpected status %d", i, r.code)
		}
	}
	if served+shed != burst {
		t.Fatalf("accounting: %d served + %d shed != %d", served, shed, burst)
	}
	if served == 0 {
		t.Fatal("burst served nothing")
	}
	if shed == 0 {
		t.Fatal("burst shed nothing — QueueDepth 2 against 30 concurrent requests must shed")
	}

	// Hysteresis: the backlog is gone (all requests answered), so the
	// shedding latch must have cleared — the next request is admitted.
	code, body, _, err := postRaw(client, url, map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
	if err != nil || code != 200 {
		t.Fatalf("post-burst request = %d %v (err %v); want 200 after hysteresis clears", code, body, err)
	}
}

// TestQueueDepthCountsOnlyWaiters pins the QueueDepth contract:
// waiting counts requests that have arrived but not yet acquired a
// worker slot, never the ones executing. With one worker and a queue of
// one, a second arrival while the first runs must queue and succeed,
// not be shed with 429.
func TestQueueDepthCountsOnlyWaiters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started, unblock := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	ts := httptest.NewServer(s.admit(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			close(started)
			<-unblock
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})))
	defer ts.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var release sync.Once
	unhold := func() { release.Do(func() { close(unblock) }) }
	defer unhold() // a failing wait must not leave ts.Close blocked on the held handler

	codes := make(chan int, 2)
	post := func() {
		code, _, _, err := postRaw(client, ts.URL, map[string]any{}, nil)
		if err != nil {
			t.Error(err)
		}
		codes <- code
	}
	go post()
	<-started
	waitFor(t, "the running request to leave the wait queue", func() bool { return s.waiting.Load() == 0 })
	go post()
	waitFor(t, "the second request to queue", func() bool { return s.waiting.Load() == 1 })
	unhold()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request answered %d; want 200 (queued behind the running one, not shed)", code)
		}
	}
	if n := s.metrics.shed.Load(); n != 0 {
		t.Fatalf("shed %d requests; want 0", n)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulDrainNoGoroutineLeak: serve traffic, start a checkpointed
// sweep, then drain — every goroutine the server started must be gone.
func TestGracefulDrainNoGoroutineLeak(t *testing.T) {
	runtime.GC()
	baseline := runtime.NumGoroutine()

	s := startServer(t, Config{CheckpointDir: t.TempDir()})
	client := &http.Client{}
	base := "http://" + s.Addr()

	for i := 0; i < 3; i++ {
		code, body, _, err := postRaw(client, base+"/v1/schedule",
			map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
		if err != nil || code != 200 {
			t.Fatalf("schedule %d = %d %v (err %v)", i, code, body, err)
		}
	}
	// A sweep job is mid-flight when the drain starts; the drain must
	// stop it at a rung boundary and reap its goroutine.
	code, body, _, err := postRaw(client, base+"/v1/sweeps",
		map[string]any{"hw": "crophe64", "workload": "helr", "seed": 3, "steps": 8, "deadline_ms": 2}, nil)
	if err != nil || code != 202 {
		t.Fatalf("start sweep = %d %v (err %v)", code, body, err)
	}

	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestChaosAcceptance is the chaos drill from the issue: 500 requests
// where 10% are fault-seeded panics and the rest arrive under a 1–10 ms
// deadline storm. The only acceptable outcomes are 2xx, 429 (shed), or a
// structured 500 carrying the injected fault seed; the process must
// survive with zero lost requests and zero leaked goroutines.
func TestChaosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos drill is a load test")
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	s := startServer(t, Config{
		AllowChaos: true,
		Workers:    4,
		QueueDepth: 16,
		QueueWait:  200 * time.Millisecond,
	})
	client := &http.Client{}
	url := fmtURL(s, "/v1/schedule")

	const (
		total       = 500
		concurrency = 32
	)
	type outcome struct {
		idx  int
		code int
		body map[string]any
		err  error
	}
	// One slot past the storm for a serial chaos request: a 429 can shed
	// every storm request, but not a lone request to an idle server, so
	// at least one seeded panic always reaches a handler.
	results := make([]outcome, total+1)
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			var body map[string]any
			if i%10 == 0 {
				body = map[string]any{"hw": "crophe64", "workload": "helr",
					"chaos_panic": true, "seed": i}
			} else {
				body = map[string]any{"hw": "crophe64", "workload": "helr",
					"deadline_ms": 1 + i%10}
			}
			code, out, _, err := postRaw(client, url, body, nil)
			results[i] = outcome{i, code, out, err}
		}(i)
	}
	wg.Wait()
	code, out, _, err := postRaw(client, url, map[string]any{"hw": "crophe64", "workload": "helr",
		"chaos_panic": true, "seed": total}, nil)
	results[total] = outcome{total, code, out, err}
	if err == nil && code != 500 {
		t.Fatalf("serial chaos request after the storm = %d %v; want the seeded 500", code, out)
	}

	var served, shed, seededPanics int
	for _, r := range results {
		switch {
		case r.err != nil:
			t.Fatalf("request %d lost: %v", r.idx, r.err)
		case r.code == 200:
			served++
		case r.code == 429:
			shed++
		case r.code == 500:
			seededPanics++
			if r.idx%10 != 0 {
				t.Fatalf("request %d: 500 on a non-chaos request: %v", r.idx, r.body)
			}
			if seed, _ := r.body["fault_seed"].(float64); int(seed) != r.idx {
				t.Fatalf("request %d: 500 fault_seed = %v; want %d", r.idx, r.body["fault_seed"], r.idx)
			}
			msg, _ := r.body["error"].(string)
			if !strings.Contains(msg, fmt.Sprintf("invariant violation under fault seed %d", r.idx)) {
				t.Fatalf("request %d: 500 error %q missing seed convention", r.idx, msg)
			}
		default:
			t.Fatalf("request %d: unexpected status %d body %v", r.idx, r.code, r.body)
		}
	}
	if served == 0 {
		t.Fatal("chaos storm served nothing")
	}
	if seededPanics == 0 {
		t.Fatal("no chaos panic reached a handler — the drill tested nothing")
	}

	// The process is still healthy and still doing real work.
	code, body, _, err := postRaw(client, url, map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
	if err != nil || code != 200 {
		t.Fatalf("post-storm schedule = %d %v (err %v)", code, body, err)
	}
	codeH, bodyH, _ := doJSON(t, client, "GET", fmtURL(s, "/debug/vars"), nil, nil)
	if codeH != 200 {
		t.Fatalf("post-storm vars = %d", codeH)
	}
	reqCounters := bodyH["requests"].(map[string]any)
	if got, _ := reqCounters["panics"].(float64); int(got) != seededPanics {
		t.Fatalf("vars count %v recovered panics; drill observed %d", reqCounters["panics"], seededPanics)
	}

	if err := s.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"crophe"
)

// startServer boots a Server on an ephemeral port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Shutdown() })
	return s
}

// doJSON posts body (nil for GET) and decodes the JSON response.
func doJSON(t *testing.T, client *http.Client, method, url string, body any, headers map[string]string) (int, map[string]any, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out, resp.Header
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus a small slack for runtime helpers), dumping stacks on
// timeout — the leak check behind the drain tests.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after drain: %d goroutines, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestHealthEndpoints(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	if code, body, _ := doJSON(t, client, "GET", base+"/healthz", nil, nil); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if code, body, _ := doJSON(t, client, "GET", base+"/readyz", nil, nil); code != 200 || body["status"] != "ready" {
		t.Fatalf("readyz = %d %v", code, body)
	}
}

func TestScheduleEndpointAndMemo(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr() + "/v1/schedule"
	req := map[string]any{"hw": "crophe64", "workload": "helr"}

	code, body, _ := doJSON(t, client, "POST", url, req, nil)
	if code != 200 {
		t.Fatalf("schedule = %d %v", code, body)
	}
	if ms, _ := body["time_ms"].(float64); ms <= 0 {
		t.Fatalf("non-positive time_ms in %v", body)
	}
	if body["partial"] != false {
		t.Fatalf("unbounded schedule marked partial: %v", body)
	}

	// The identical request coalesces on the schedule memo.
	code, body, _ = doJSON(t, client, "POST", url, req, nil)
	if code != 200 || body["cached"] != true {
		t.Fatalf("repeat schedule = %d %v; want cached=true", code, body)
	}
}

func TestScheduleMemoKeysCanonicalWorkload(t *testing.T) {
	// Two spellings of one workload share one memo entry: whether or not
	// an earlier request cached "helr", "helr1024" must now hit it.
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr() + "/v1/schedule"

	if code, body, _ := doJSON(t, client, "POST", url, map[string]any{"hw": "crophe36", "workload": "helr"}, nil); code != 200 {
		t.Fatalf("schedule helr = %d %v", code, body)
	}
	code, body, _ := doJSON(t, client, "POST", url, map[string]any{"hw": "crophe36", "workload": "helr1024"}, nil)
	if code != 200 || body["cached"] != true {
		t.Fatalf("schedule helr1024 after helr = %d %v; want cached=true", code, body)
	}
}

func TestScheduleBadInput(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	cases := []struct {
		name    string
		body    any
		headers map[string]string
	}{
		{"unknown hw", map[string]any{"hw": "tpu", "workload": "helr"}, nil},
		{"unknown workload", map[string]any{"hw": "crophe64", "workload": "doom"}, nil},
		{"unknown dataflow", map[string]any{"hw": "crophe64", "workload": "helr", "dataflow": "magic"}, nil},
		{"unknown field", map[string]any{"hw": "crophe64", "workload": "helr", "dead_line_ms": 5}, nil},
		{"malformed deadline header", map[string]any{"hw": "crophe64", "workload": "helr"},
			map[string]string{DeadlineHeader: "fast"}},
	}
	for _, c := range cases {
		code, body, _ := doJSON(t, client, "POST", base+"/v1/schedule", c.body, c.headers)
		if code != 400 {
			t.Errorf("%s: code %d body %v; want 400", c.name, code, body)
		}
		if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: missing error message", c.name)
		}
	}
}

func TestDeadlineExpiryReturnsPartial(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	// Body deadline: a 1 ms budget cuts the helr search well before it
	// finishes, and the contract is a best-so-far schedule, not an error.
	code, body, _ := doJSON(t, client, "POST", base+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr", "deadline_ms": 1}, nil)
	if code != 200 {
		t.Fatalf("deadline schedule = %d %v", code, body)
	}
	if body["partial"] != true {
		t.Fatalf("1ms-deadline schedule not partial: %v", body)
	}
	if ms, _ := body["time_ms"].(float64); ms <= 0 {
		t.Fatalf("partial schedule has non-positive time_ms: %v", body)
	}

	// Header deadline: same contract through X-Crophe-Deadline.
	code, body, _ = doJSON(t, client, "POST", base+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr"},
		map[string]string{DeadlineHeader: "1ms"})
	if code != 200 || body["partial"] != true {
		t.Fatalf("header-deadline schedule = %d %v; want 200 partial", code, body)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body, _ := doJSON(t, client, "POST", "http://"+s.Addr()+"/v1/simulate",
		map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
	if code != 200 {
		t.Fatalf("simulate = %d %v", code, body)
	}
	if ms, _ := body["sim_time_ms"].(float64); ms <= 0 {
		t.Fatalf("non-positive sim_time_ms: %v", body)
	}
	if cyc, _ := body["sim_cycles"].(float64); cyc <= 0 {
		t.Fatalf("non-positive sim_cycles: %v", body)
	}
}

func TestSimulateDegradedEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr() + "/v1/simulate-degraded"

	code, body, _ := doJSON(t, client, "POST", url,
		map[string]any{"hw": "crophe64", "workload": "helr", "faults": "rows:1,hbm:0.8", "seed": 21}, nil)
	if code != 200 {
		t.Fatalf("simulate-degraded = %d %v", code, body)
	}
	if n, _ := body["fault_count"].(float64); n < 1 {
		t.Fatalf("degraded run reports no faults: %v", body)
	}
	if ms, _ := body["time_ms"].(float64); ms <= 0 {
		t.Fatalf("non-positive degraded time_ms: %v", body)
	}

	code, body, _ = doJSON(t, client, "POST", url,
		map[string]any{"hw": "crophe64", "workload": "helr", "faults": "rows:banana", "seed": 1}, nil)
	if code != 400 {
		t.Fatalf("bad fault spec = %d %v; want 400", code, body)
	}

	// A malformed SDC term is rejected the same way.
	code, body, _ = doJSON(t, client, "POST", url,
		map[string]any{"hw": "crophe64", "workload": "helr", "faults": "flip:2", "seed": 1}, nil)
	if code != 400 {
		t.Fatalf("bad flip rate = %d %v; want 400", code, body)
	}
}

func TestSimulateDegradedDeadlineMatchesFacade(t *testing.T) {
	// A deadline on /v1/simulate-degraded is the deterministic search
	// budget, as on /v1/schedule and /v1/simulate: the response equals
	// the façade's one schedule→simulate path under that deadline. The
	// deadline is long enough that the request's wall-clock backstop
	// never fires first, even under the race detector.
	const deadline = time.Second
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr() + "/v1/simulate-degraded"

	code, body, _ := doJSON(t, client, "POST", url, map[string]any{"hw": "crophe64", "workload": "boot",
		"faults": "rows:1,links:2,hbm:0.8", "seed": 7, "deadline_ms": deadline.Milliseconds()}, nil)
	if code != 200 {
		t.Fatalf("simulate-degraded = %d %v", code, body)
	}
	hw, _ := crophe.LookupHW("crophe64")
	spec, err := crophe.ParseFaultSpec("rows:1,links:2,hbm:0.8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := crophe.NewFaultMachine(hw, spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := crophe.LookupWorkload("boot", crophe.DefaultParamsFor(hw), crophe.RotHoisted)
	res, sc, err := crophe.SimulateWorkloadContext(context.Background(), crophe.DegradedDesign(hw), w, deadline,
		crophe.WithFaults(m))
	if err != nil {
		t.Fatal(err)
	}
	if body["time_ms"] != res.TimeSec*1e3 || body["cycles"] != res.Cycles || body["partial"] != sc.Partial {
		t.Fatalf("served %v; façade time_ms %v cycles %v partial %v",
			body, res.TimeSec*1e3, res.Cycles, sc.Partial)
	}
}

func TestSimulateDegradedReportsIntegrity(t *testing.T) {
	// A fault spec with silent data corruption surfaces the priced
	// detect → recompute → escalate outcome on the wire; one without
	// omits the section entirely.
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	url := "http://" + s.Addr() + "/v1/simulate-degraded"

	code, body, _ := doJSON(t, client, "POST", url,
		map[string]any{"hw": "crophe64", "workload": "helr", "faults": "flip:0.0001,scrub:100000", "seed": 42}, nil)
	if code != 200 {
		t.Fatalf("simulate-degraded with flips = %d %v", code, body)
	}
	integ, ok := body["integrity"].(map[string]any)
	if !ok {
		t.Fatalf("flip run carries no integrity section: %v", body)
	}
	if n, _ := integ["checks"].(float64); n <= 0 {
		t.Fatalf("integrity.checks = %v; want > 0", integ["checks"])
	}
	if det, _ := integ["detected"].(float64); det != integ["recomputed"].(float64) {
		t.Fatalf("every detection must be recomputed: %v", integ)
	}
	if p, _ := integ["penalty_cycles"].(float64); p <= 0 {
		t.Fatalf("scrubbing run priced no penalty cycles: %v", integ)
	}

	code, body, _ = doJSON(t, client, "POST", url,
		map[string]any{"hw": "crophe64", "workload": "helr", "faults": "rows:1", "seed": 42}, nil)
	if code != 200 {
		t.Fatalf("simulate-degraded without flips = %d %v", code, body)
	}
	if _, ok := body["integrity"]; ok {
		t.Fatalf("flip-free run leaked an integrity section: %v", body)
	}
}

// TestSimulateRetainsNoPerRequestState: the server keeps nothing per
// simulation, so the live heap after 60 simulate requests (half of them
// degraded) is the heap after 10 plus noise. A collector kept across
// requests holds about 1,700 spans (~0.2 MB) per simulation, ~10 MB
// over the 50 extra requests.
func TestSimulateRetainsNoPerRequestState(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()
	simulate := func(i int) {
		url, body := base+"/v1/simulate", map[string]any{"hw": "crophe64", "workload": "helr"}
		if i%2 == 1 {
			url = base + "/v1/simulate-degraded"
			body["faults"], body["seed"] = "rows:1", i
		}
		if code, resp, _ := doJSON(t, client, "POST", url, body, nil); code != 200 {
			t.Fatalf("%s = %d %v", url, code, resp)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 10; i++ {
		simulate(i)
	}
	at10 := liveHeap()
	for i := 10; i < 60; i++ {
		simulate(i)
	}
	at60 := liveHeap()
	t.Logf("live heap %d B after 10 simulate requests, %d B after 60", at10, at60)
	const bound = 2 << 20
	if at60 > at10+bound {
		t.Fatalf("live heap grew %.1f MB over 50 simulate requests (%.1f → %.1f MB); bound %.0f MB",
			float64(at60-at10)/(1<<20), float64(at10)/(1<<20), float64(at60)/(1<<20), float64(bound)/(1<<20))
	}
}

func TestVarsEndpoint(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	// Serve one request so the counters are non-trivial.
	doJSON(t, client, "POST", base+"/v1/schedule", map[string]any{"hw": "crophe64", "workload": "helr"}, nil)

	code, body, _ := doJSON(t, client, "GET", base+"/debug/vars", nil, nil)
	if code != 200 {
		t.Fatalf("vars = %d %v", code, body)
	}
	for _, key := range []string{"admission", "requests", "schedule_memo"} {
		if _, ok := body[key]; !ok {
			t.Errorf("vars missing %q section: %v", key, body)
		}
	}
	reqs := body["requests"].(map[string]any)
	if served, _ := reqs["served"].(float64); served < 1 {
		t.Errorf("vars report zero served requests after a request: %v", reqs)
	}
	memo := body["schedule_memo"].(map[string]any)
	if _, ok := memo["hit_rate"]; !ok {
		t.Errorf("schedule_memo missing hit_rate: %v", memo)
	}
}

func TestChaosFieldRejectedWhenDisabled(t *testing.T) {
	// Without AllowChaos the field decodes but is ignored — a production
	// server must not be panickable by request content.
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()

	code, body, _ := doJSON(t, client, "POST", "http://"+s.Addr()+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr", "chaos_panic": true, "seed": 99}, nil)
	if code != 200 {
		t.Fatalf("chaos_panic with AllowChaos off = %d %v; want it ignored (200)", code, body)
	}
}

func TestPanicIsolationCarriesSeed(t *testing.T) {
	s := startServer(t, Config{AllowChaos: true})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	code, body, _ := doJSON(t, client, "POST", base+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr", "chaos_panic": true, "seed": 4242}, nil)
	if code != 500 {
		t.Fatalf("chaos panic = %d %v; want 500", code, body)
	}
	if body["panic"] != true {
		t.Fatalf("500 body missing panic marker: %v", body)
	}
	if seed, _ := body["fault_seed"].(float64); seed != 4242 {
		t.Fatalf("500 body fault_seed = %v; want 4242", body["fault_seed"])
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "invariant violation under fault seed 4242") {
		t.Fatalf("500 error %q does not follow the recoverFaultPanic convention", msg)
	}

	// The process keeps serving after the panic.
	if code, _, _ := doJSON(t, client, "GET", base+"/healthz", nil, nil); code != 200 {
		t.Fatalf("server unhealthy after recovered panic: %d", code)
	}
	code, body, _ = doJSON(t, client, "POST", base+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
	if code != 200 {
		t.Fatalf("schedule after recovered panic = %d %v", code, body)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := startServer(t, Config{})
	// Flip the drain latch directly (Shutdown would close the listener
	// before we could observe the 503s).
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()

	if code, body, _ := doJSON(t, client, "GET", base+"/readyz", nil, nil); code != 503 || body["status"] != "draining" {
		t.Fatalf("draining readyz = %d %v; want 503 draining", code, body)
	}
	code, body, _ := doJSON(t, client, "POST", base+"/v1/schedule",
		map[string]any{"hw": "crophe64", "workload": "helr"}, nil)
	if code != 503 {
		t.Fatalf("draining schedule = %d %v; want 503", code, body)
	}
	// Liveness stays green: the process is healthy, just not accepting.
	if code, _, _ := doJSON(t, client, "GET", base+"/healthz", nil, nil); code != 200 {
		t.Fatalf("draining healthz = %d; want 200", code)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s := startServer(t, Config{})
	if err := s.Shutdown(); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func fmtURL(s *Server, path string) string {
	return fmt.Sprintf("http://%s%s", s.Addr(), path)
}

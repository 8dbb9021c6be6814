package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crophe"
	"crophe/internal/leakcheck"
)

// postSweepRaw POSTs a sweep request and returns the status and the raw
// response body.
func postSweepRaw(t *testing.T, client *http.Client, s *Server, req SweepRequest, headers map[string]string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		hr.Header.Set(k, v)
	}
	resp, err := client.Do(hr)
	if err != nil {
		t.Fatalf("POST /v1/sweeps: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading sweep response: %v", err)
	}
	return resp.StatusCode, raw
}

// TestSweepEndpointMatchesFacade: POST /v1/sweeps answers the curve
// crophe.RunResilienceSweep computes for the same parameters on the
// hoisted-rotation workload, rung for rung.
func TestSweepEndpointMatchesFacade(t *testing.T) {
	leakcheck.Check(t)
	s := startServer(t, Config{})
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	req := SweepRequest{HW: "crophe36", Workload: "helr", Seed: 7, Steps: 5, DeadlineMS: 4}

	got, err := NewClient(s.Addr(), WithHTTPClient(hc)).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	hw, factory, err := lookup(req.HW, req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := crophe.RunResilienceSweep(context.Background(), hw, factory(crophe.RotHoisted, 0), req.Seed, req.Steps,
		time.Duration(req.DeadlineMS)*time.Millisecond)
	if err != nil {
		t.Fatalf("RunResilienceSweep: %v", err)
	}
	want := &SweepResponse{HW: req.HW, Workload: req.Workload, Seed: req.Seed, Steps: req.Steps,
		DeadlineMS: req.DeadlineMS, BaselineMS: sw.Baseline * 1e3}
	for _, pt := range sw.Points {
		want.Points = append(want.Points, SweepPointSummary{
			Step: pt.Step, FracFailed: pt.FracFailed, FaultCount: pt.FaultCount,
			TimeMS: pt.Outcome.TimeSec * 1e3, Retained: pt.Retained(sw.Baseline),
			Partial: pt.Outcome.Partial, Err: pt.Err,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("endpoint and façade sweeps differ:\nendpoint %+v\nfaçade   %+v", got, want)
	}
}

// TestSweepEndpointMatchesEarlierRelease is the cross-release pin: the
// testdata body is a finished sweep job's GET /v1/sweeps/{id} report, as
// the asynchronous job API of an earlier release served it, minus the
// job's id, state and completed_steps fields. The synchronous response
// to the same request must be byte-identical to it. A deliberate change
// to the scheduler or the fault model that moves rung outcomes must
// regenerate it.
func TestSweepEndpointMatchesEarlierRelease(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep-crophe64-helr-seed11.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	req := SweepRequest{HW: "crophe64", Workload: "helr", Seed: 11, Steps: 4, DeadlineMS: 3}
	code, got := postSweepRaw(t, client, s, req, nil)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d %s; want 200", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep body differs from the earlier release's report:\ngot  %s\nwant %s", got, want)
	}
}

// TestSweepStepsOutOfRange: a sweep needs a healthy rung and at least
// one faulted rung, so steps outside [2, 256] is a 400 — never a sweep
// that silently runs a different rung count than it reports.
func TestSweepStepsOutOfRange(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for _, steps := range []int{0, 1, 257} {
		req := map[string]any{"hw": "crophe64", "workload": "helr", "seed": 11, "steps": steps}
		if code, body, _ := doJSON(t, client, "POST", "http://"+s.Addr()+"/v1/sweeps", req, nil); code != 400 {
			t.Errorf("steps=%d: code %d body %v; want 400", steps, code, body)
		}
	}
}

// TestSweepDeadlineHeaderStopsSweep: the deadline header bounds the
// whole sweep, so a 1 ms budget on a 16-rung sweep stops it before its
// last rung starts and answers a 500 naming the step it stopped before,
// never a partial curve.
func TestSweepDeadlineHeaderStopsSweep(t *testing.T) {
	s := startServer(t, Config{})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	req := SweepRequest{HW: "crophe64", Workload: "helr", Seed: 11, Steps: 16}
	code, body := postSweepRaw(t, client, s, req, map[string]string{DeadlineHeader: "1ms"})
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "sweep interrupted before step") {
		t.Fatalf("sweep under a 1ms deadline = %d %s; want 500 naming the interrupted step", code, body)
	}
}

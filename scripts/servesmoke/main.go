// Command servesmoke is the serve-smoke driver: it exercises a real
// crophe-serve binary end to end — health, scheduling, the memo path,
// deadline-expiry partials, degraded simulation, chaos panic isolation,
// a checkpointed sweep job, SIGTERM drain, and checkpoint recovery
// across a restart. It is a plain Go program (no curl, no shell) built
// on the typed serve.Client, so `make serve-smoke` and CI run the
// identical drill through the same client production callers use.
//
// Usage:
//
//	servesmoke -bin path/to/crophe-serve
//
// Exits 0 when every probe passes, 1 with a diagnostic otherwise.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"crophe/internal/serve"
)

// server wraps one child crophe-serve process and the typed client
// pointed at it.
type server struct {
	cmd    *exec.Cmd
	addr   string
	client *serve.Client
}

// cleanup kills any still-running child on failure paths; registered
// processes that already exited are no-ops.
var running []*server

func fatalf(format string, a ...any) {
	for _, s := range running {
		if s.cmd.Process != nil {
			_ = s.cmd.Process.Kill()
			_, _ = s.cmd.Process.Wait()
		}
	}
	fmt.Fprintf(os.Stderr, "servesmoke: FAIL: "+format+"\n", a...)
	os.Exit(1)
}

// start launches the binary and parses the listen address off its
// "crophe-serve: listening on ..." startup line.
func start(bin, checkpointDir string, chaos bool, extraArgs ...string) *server {
	args := []string{"-addr", "127.0.0.1:0", "-checkpoint-dir", checkpointDir, "-queue-wait", "5s"}
	if chaos {
		args = append(args, "-chaos")
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		fatalf("stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fatalf("starting %s: %v", bin, err)
	}
	s := &server{cmd: cmd}
	running = append(running, s)

	lines := bufio.NewScanner(stdout)
	for lines.Scan() {
		line := lines.Text()
		if rest, ok := strings.CutPrefix(line, "crophe-serve: listening on "); ok {
			s.addr = strings.TrimSpace(rest)
			break
		}
	}
	if s.addr == "" {
		fatalf("server exited without announcing a listen address")
	}
	// Drain the rest of stdout so the child never blocks on a full pipe.
	go func() {
		for lines.Scan() {
		}
	}()
	s.client = serve.NewClient(s.addr)
	return s
}

// drain sends SIGTERM and requires a clean exit.
func (s *server) drain() {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatalf("server exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		fatalf("server did not drain within 30s of SIGTERM")
	}
}

// getJSON fetches a path that has no typed client method (the debug
// endpoints) and decodes the body.
func (s *server) getJSON(path string) (int, map[string]any) {
	resp, err := http.Get("http://" + s.addr + path)
	if err != nil {
		fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fatalf("GET %s: decoding %d response: %v", path, resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// waitDone polls a sweep job through the client until it finishes.
func (s *server) waitDone(id string, timeout time.Duration) *serve.SweepStatus {
	deadline := time.Now().Add(timeout)
	for {
		st, err := s.client.SweepStatus(context.Background(), id)
		if err != nil {
			fatalf("sweep poll: %v", err)
		}
		switch st.State {
		case "done":
			return st
		case "failed":
			fatalf("sweep failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			fatalf("sweep did not finish: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func step(format string, a ...any) { fmt.Printf("servesmoke: "+format+"\n", a...) }

func main() {
	bin := flag.String("bin", "", "path to a built crophe-serve binary")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "servesmoke: -bin is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	checkpoints, err := os.MkdirTemp("", "servesmoke-*")
	if err != nil {
		fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(checkpoints)

	s := start(*bin, checkpoints, true)
	step("server up on %s", s.addr)

	if code, _ := s.getJSON("/healthz"); code != 200 {
		fatalf("/healthz = %d; want 200", code)
	}
	if err := s.client.Ready(ctx); err != nil {
		fatalf("Ready: %v", err)
	}

	// Full-budget schedule, then the memo hit.
	sched := serve.ScheduleRequest{HW: "crophe64", Workload: "helr"}
	resp, err := s.client.Schedule(ctx, sched)
	if err != nil {
		fatalf("schedule: %v", err)
	}
	if resp.Partial || resp.TimeMS <= 0 {
		fatalf("schedule = %+v; want a full positive-time schedule", resp)
	}
	resp, err = s.client.Schedule(ctx, sched)
	if err != nil || !resp.Cached {
		fatalf("repeat schedule = %+v (%v); want cached=true", resp, err)
	}
	step("schedule ok (memo hit on repeat)")

	// A 1 ms deadline cannot cover the helr search space: the anytime
	// search must return its best-so-far schedule marked partial.
	resp, err = s.client.Schedule(ctx, serve.ScheduleRequest{HW: "crophe64", Workload: "helr", DeadlineMS: 1})
	if err != nil || !resp.Partial {
		fatalf("deadline schedule = %+v (%v); want partial=true", resp, err)
	}
	step("deadline expiry returned a partial schedule")

	deg, err := s.client.SimulateDegraded(ctx, serve.DegradedRequest{
		HW: "crophe64", Workload: "helr", Faults: "rows:1,links:2", Seed: 13,
	})
	if err != nil {
		fatalf("simulate-degraded: %v", err)
	}
	if deg.FaultCount < 1 {
		fatalf("degraded run injected %d faults; want >= 1", deg.FaultCount)
	}
	step("degraded simulation ok (%d faults)", deg.FaultCount)

	// Chaos: an injected panic must come back as a typed 500 carrying
	// the fault seed — and the server must keep serving.
	_, err = s.client.Schedule(ctx, serve.ScheduleRequest{
		HW: "crophe64", Workload: "helr", ChaosPanic: true, Seed: 99,
	})
	var apiErr *serve.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 500 {
		fatalf("chaos request: %T %v; want *serve.APIError 500", err, err)
	}
	if apiErr.FaultSeed == nil || *apiErr.FaultSeed != 99 {
		fatalf("chaos 500 fault seed = %v; want 99", apiErr.FaultSeed)
	}
	if !strings.Contains(apiErr.Message, "invariant violation under fault seed 99") {
		fatalf("chaos 500 error %q missing the seed convention", apiErr.Message)
	}
	if err := s.client.Ready(ctx); err != nil {
		fatalf("Ready after chaos panic: %v", err)
	}
	step("chaos panic isolated as a typed 500")

	// A checkpointed sweep job: idempotent start, poll to done.
	sweep := serve.SweepRequest{HW: "crophe64", Workload: "helr", Seed: 5, Steps: 4, DeadlineMS: 3}
	st, err := s.client.StartSweep(ctx, sweep)
	if err != nil || st.Created == nil || !*st.Created {
		fatalf("start sweep = %+v (%v); want created=true", st, err)
	}
	id := st.ID
	st, err = s.client.StartSweep(ctx, sweep)
	if err != nil || st.ID != id || st.Created == nil || *st.Created {
		fatalf("repeat sweep POST = %+v (%v); want same id, created=false", st, err)
	}
	final := s.waitDone(id, 30*time.Second)
	if len(final.Points) != 4 {
		fatalf("done sweep has %d points; want 4", len(final.Points))
	}
	step("sweep %s done (4 rungs journaled)", id)

	code, body := s.getJSON("/debug/vars")
	if code != 200 {
		fatalf("/debug/vars = %d", code)
	}
	reqVars, _ := body["requests"].(map[string]any)
	if n, _ := reqVars["panics"].(float64); n != 1 {
		fatalf("vars requests.panics = %v; want 1 (the chaos drill)", reqVars["panics"])
	}

	s.drain()
	step("SIGTERM drain clean")

	// The journal survived the drain and carries the done terminator.
	journals, err := filepath.Glob(filepath.Join(checkpoints, "*.sweep.jsonl"))
	if err != nil || len(journals) != 1 {
		fatalf("checkpoint dir holds %d journals (err %v); want 1", len(journals), err)
	}
	raw, err := os.ReadFile(journals[0])
	if err != nil {
		fatalf("reading journal: %v", err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	if !bytes.Contains(lines[len(lines)-1], []byte(`"done":true`)) {
		fatalf("journal tail %q is not the done terminator", lines[len(lines)-1])
	}

	// A restarted server recovers the finished job from its journal.
	s2 := start(*bin, checkpoints, false)
	st, err = s2.client.SweepStatus(ctx, id)
	if err != nil || st.State != "done" {
		fatalf("recovered sweep = %+v (%v); want done", st, err)
	}
	if len(st.Points) != 4 {
		fatalf("recovered sweep has %d points; want 4", len(st.Points))
	}
	s2.drain()
	step("restart recovered the finished sweep from its journal")

	fmt.Println("servesmoke: PASS")
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"crophe/internal/leakcheck"
)

// sweepTestParams is the shared job identity the checkpoint tests run:
// small enough to finish in tens of milliseconds, enough rungs that a
// drain lands mid-sweep.
func sweepTestParams() sweepParams {
	p := sweepParams{V: 1, HW: "crophe64", Workload: "helr", Seed: 7, Steps: 6, DeadlineMS: 3}
	p.ID = sweepID(p)
	return p
}

// waitJobState polls a job until pred holds.
func waitJob(t *testing.T, j *job, what string, pred func(state string, completed int) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		state, completed, errText, _ := j.snapshot()
		if pred(state, completed) {
			return
		}
		if state == jobFailed {
			t.Fatalf("job failed waiting for %s: %s", what, errText)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s (state %s, %d rungs)", what, state, completed)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSweepCheckpointKillResumeByteIdentical is the crash-safety
// contract: a sweep interrupted mid-run and resumed by a fresh manager
// over the same checkpoint directory must finish with a journal
// byte-identical to an uninterrupted run's.
func TestSweepCheckpointKillResumeByteIdentical(t *testing.T) {
	leakcheck.Check(t)
	params := sweepTestParams()
	interruptedDir, cleanDir := t.TempDir(), t.TempDir()

	// Phase 1: run until at least one rung is journaled, then stop the
	// manager — the moral equivalent of SIGKILL at a rung boundary (the
	// journal never holds a partial rung either way; tearing of the final
	// line is covered by TestTornJournalTailRecovery).
	m1 := newJobManager(interruptedDir)
	if err := m1.recover(); err != nil {
		t.Fatalf("recover empty dir: %v", err)
	}
	j1, created, err := m1.start(params)
	if err != nil || !created {
		t.Fatalf("start = created %v, err %v", created, err)
	}
	waitJob(t, j1, "first rung", func(_ string, completed int) bool { return completed >= 1 })
	<-m1.stop()

	interrupted, err := os.ReadFile(journalPath(interruptedDir, params.ID))
	if err != nil {
		t.Fatalf("reading interrupted journal: %v", err)
	}
	if state, _, _, _ := j1.snapshot(); state == jobDone {
		t.Log("sweep outran the interrupt; byte-compare still validates determinism")
	}

	// Phase 2: a fresh manager (a restarted server) recovers the journal
	// and resumes from the last completed rung.
	m2 := newJobManager(interruptedDir)
	if err := m2.recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := m2.get(params.ID)
	if !ok {
		t.Fatal("recovered manager lost the job")
	}
	waitJob(t, j2, "resumed completion", func(state string, _ int) bool { return state == jobDone })
	<-m2.stop()

	resumed, err := os.ReadFile(journalPath(interruptedDir, params.ID))
	if err != nil {
		t.Fatalf("reading resumed journal: %v", err)
	}
	if !bytes.HasPrefix(resumed, interrupted) {
		t.Fatal("resume rewrote journaled rungs instead of appending")
	}

	// Phase 3: the reference — the same sweep, never interrupted.
	m3 := newJobManager(cleanDir)
	j3, _, err := m3.start(params)
	if err != nil {
		t.Fatalf("reference start: %v", err)
	}
	waitJob(t, j3, "reference completion", func(state string, _ int) bool { return state == jobDone })
	<-m3.stop()

	reference, err := os.ReadFile(journalPath(cleanDir, params.ID))
	if err != nil {
		t.Fatalf("reading reference journal: %v", err)
	}
	if !bytes.Equal(resumed, reference) {
		t.Fatalf("resumed journal differs from uninterrupted run:\nresumed  (%d bytes): %s\nreference (%d bytes): %s",
			len(resumed), resumed, len(reference), reference)
	}

	// And the assembled results agree rung for rung.
	_, _, _, r2 := j2.snapshot()
	_, _, _, r3 := j3.snapshot()
	if r2 == nil || r3 == nil {
		t.Fatal("done jobs carry no result")
	}
	if len(r2.Points) != len(r3.Points) {
		t.Fatalf("resumed sweep has %d points, reference %d", len(r2.Points), len(r3.Points))
	}
	for i := range r2.Points {
		if r2.Points[i] != r3.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, r2.Points[i], r3.Points[i])
		}
	}
}

// TestDoneJobSurvivesRestart: a finished journal recovers as a done job
// with its result reassembled from the journaled rungs.
func TestDoneJobSurvivesRestart(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	params := sweepTestParams()

	m1 := newJobManager(dir)
	j1, _, err := m1.start(params)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1, "completion", func(state string, _ int) bool { return state == jobDone })
	<-m1.stop()
	_, _, _, want := j1.snapshot()

	m2 := newJobManager(dir)
	if err := m2.recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	j2, ok := m2.get(params.ID)
	if !ok {
		t.Fatal("done job not recovered")
	}
	state, completed, _, got := j2.snapshot()
	if state != jobDone || got == nil {
		t.Fatalf("recovered job state %s, result %v; want done with result", state, got)
	}
	if completed != len(want.Points) || len(got.Points) != len(want.Points) {
		t.Fatalf("recovered %d rungs / %d points; want %d", completed, len(got.Points), len(want.Points))
	}
	if got.Baseline != want.Baseline {
		t.Fatalf("recovered baseline %g; want %g", got.Baseline, want.Baseline)
	}
	for i := range want.Points {
		if got.Points[i] != want.Points[i] {
			t.Fatalf("recovered point %d differs: %+v vs %+v", i, got.Points[i], want.Points[i])
		}
	}
	<-m2.stop()
}

// TestTornJournalTailRecovery: a crash mid-append leaves a torn final
// line; recovery must keep every intact rung, drop the tear, and resume
// appending cleanly.
func TestTornJournalTailRecovery(t *testing.T) {
	dir := t.TempDir()
	params := sweepTestParams()

	m1 := newJobManager(dir)
	j1, _, err := m1.start(params)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1, "completion", func(state string, _ int) bool { return state == jobDone })
	<-m1.stop()

	path := journalPath(dir, params.ID)
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the terminator and half of the final rung line: the journal of
	// a process that died mid-write.
	lines := bytes.Split(bytes.TrimSuffix(intact, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to tear: %d lines", len(lines))
	}
	torn := append(bytes.Join(lines[:len(lines)-2], []byte("\n")), '\n')
	torn = append(torn, lines[len(lines)-2][:len(lines[len(lines)-2])/2]...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := readJournal(path)
	if err != nil {
		t.Fatalf("reading torn journal: %v", err)
	}
	if d.done {
		t.Fatal("torn journal read as done")
	}
	if d.params != params {
		t.Fatalf("torn journal header %+v; want %+v", d.params, params)
	}
	// Steps journaled: all but the torn one and the lost terminator.
	if want := len(lines) - 3; len(d.points) != want {
		t.Fatalf("torn journal yielded %d intact rungs; want %d", len(d.points), want)
	}
	if d.keep >= int64(len(torn)) {
		t.Fatalf("keep offset %d does not exclude the torn tail (%d bytes)", d.keep, len(torn))
	}

	// A restarted manager finishes the job and the final journal matches
	// the never-torn original byte for byte.
	m2 := newJobManager(dir)
	if err := m2.recover(); err != nil {
		t.Fatalf("recover over torn journal: %v", err)
	}
	j2, ok := m2.get(params.ID)
	if !ok {
		t.Fatal("torn job not recovered")
	}
	waitJob(t, j2, "re-completion", func(state string, _ int) bool { return state == jobDone })
	<-m2.stop()

	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(healed, intact) {
		t.Fatalf("healed journal differs from the original:\nhealed   (%d bytes): %s\noriginal (%d bytes): %s",
			len(healed), healed, len(intact), intact)
	}
}

// TestSweepJobAPI drives the HTTP surface: idempotent POST, polling, and
// the finished retained-throughput curve.
func TestSweepJobAPI(t *testing.T) {
	leakcheck.Check(t)
	s := startServer(t, Config{CheckpointDir: t.TempDir()})
	client := &http.Client{}
	defer client.CloseIdleConnections()
	base := "http://" + s.Addr()
	req := map[string]any{"hw": "crophe64", "workload": "helr", "seed": 11, "steps": 4, "deadline_ms": 3}

	code, body, _ := doJSON(t, client, "POST", base+"/v1/sweeps", req, nil)
	if code != 202 {
		t.Fatalf("start sweep = %d %v; want 202", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("202 body carries no job id: %v", body)
	}
	if body["created"] != true {
		t.Fatalf("first POST not marked created: %v", body)
	}

	// Retrying the POST (client timeout, LB replay) addresses the same
	// job instead of starting a second sweep.
	code, body, _ = doJSON(t, client, "POST", base+"/v1/sweeps", req, nil)
	if code != 202 || body["id"] != id || body["created"] != false {
		t.Fatalf("repeat POST = %d %v; want same id, created=false", code, body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, _ = doJSON(t, client, "GET", base+"/v1/sweeps/"+id, nil, nil)
		if code != 200 {
			t.Fatalf("poll = %d %v", code, body)
		}
		if body["state"] == jobDone {
			break
		}
		if body["state"] == jobFailed {
			t.Fatalf("sweep failed: %v", body["error"])
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep did not finish: %v", body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	points, _ := body["points"].([]any)
	if len(points) != 4 { // steps rungs: healthy rung 0 plus 3 escalations
		t.Fatalf("done sweep has %d points; want 4: %v", len(points), body)
	}
	first := points[0].(map[string]any)
	if r, _ := first["retained"].(float64); r != 1 {
		t.Fatalf("healthy rung retained = %v; want 1", first["retained"])
	}

	if code, body, _ := doJSON(t, client, "GET", base+"/v1/sweeps/nope", nil, nil); code != 404 {
		t.Fatalf("unknown job = %d %v; want 404", code, body)
	}
}

// TestSweepStepsOutOfRange: a sweep needs a healthy rung and at least
// one faulted rung, so steps outside [2, 256] is a 400 — never a job
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

// parentJournalID is the job ID of testdata's partial journal: header
// plus rungs 0 and 1 of a four-rung sweep, CRC-framed, as an earlier
// release of crophe-serve wrote it before being killed. The ID is the
// journal's file name and header field; sweepID must keep deriving it.
// If a deliberate change to the scheduler or fault model moves rung
// outcomes, regenerate the fixture (its spliced rungs would otherwise
// disagree with a fresh run).
const parentJournalID = "311d2f867b35155a"

// getSweepBody polls GET /v1/sweeps/{id} until the job is done and
// returns the raw response body.
func getSweepBody(t *testing.T, client *http.Client, s *Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get("http://" + s.Addr() + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s = %d %s (err %v)", id, resp.StatusCode, body, err)
		}
		var st SweepStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("decoding poll body: %v", err)
		}
		switch st.State {
		case jobDone:
			return body
		case jobFailed:
			t.Fatalf("sweep %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s not done: %s", id, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResumeCheckpointFromEarlierRelease is the cross-version contract:
// a server started on a partial journal written by an earlier release
// recovers the job under the same ID, resumes it, and finishes with a
// journal and GET /v1/sweeps/{id} body byte-identical to a fresh,
// uninterrupted run of the same request.
func TestResumeCheckpointFromEarlierRelease(t *testing.T) {
	leakcheck.Check(t)
	fixture, err := os.ReadFile(filepath.Join("testdata", parentJournalID+journalSuffix))
	if err != nil {
		t.Fatal(err)
	}
	resumeDir := t.TempDir()
	if err := os.WriteFile(journalPath(resumeDir, parentJournalID), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	defer client.CloseIdleConnections()
	req := map[string]any{"hw": "crophe64", "workload": "helr", "seed": 11, "steps": 4, "deadline_ms": 3}

	resumer := startServer(t, Config{CheckpointDir: resumeDir})
	// Re-POSTing the request addresses the recovered job, not a new one.
	code, body, _ := doJSON(t, client, "POST", "http://"+resumer.Addr()+"/v1/sweeps", req, nil)
	if code != http.StatusAccepted || body["id"] != parentJournalID || body["created"] != false {
		t.Fatalf("POST over recovered journal = %d %v; want id %s, created=false", code, body, parentJournalID)
	}
	if done, _ := body["completed_steps"].(float64); done < 2 {
		t.Fatalf("recovered job reports %v completed rungs; want the journal's 2 spliced in", body["completed_steps"])
	}
	resumedBody := getSweepBody(t, client, resumer, parentJournalID)
	resumed, err := os.ReadFile(journalPath(resumeDir, parentJournalID))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(resumed, fixture) {
		t.Fatal("resume rewrote the earlier release's journaled rungs instead of appending")
	}

	freshDir := t.TempDir()
	fresh := startServer(t, Config{CheckpointDir: freshDir})
	code, body, _ = doJSON(t, client, "POST", "http://"+fresh.Addr()+"/v1/sweeps", req, nil)
	if code != http.StatusAccepted || body["id"] != parentJournalID || body["created"] != true {
		t.Fatalf("fresh POST = %d %v; want a new job with id %s", code, body, parentJournalID)
	}
	freshBody := getSweepBody(t, client, fresh, parentJournalID)
	reference, err := os.ReadFile(journalPath(freshDir, parentJournalID))
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(resumed, reference) {
		t.Fatalf("resumed journal differs from a fresh run:\nresumed   %s\nreference %s", resumed, reference)
	}
	if !bytes.Equal(resumedBody, freshBody) {
		t.Fatalf("resumed GET body differs from a fresh run:\nresumed %s\nfresh   %s", resumedBody, freshBody)
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"crophe"
	"crophe/internal/fault"
)

// Job states.
const (
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

// job is one resilience-sweep job: parameters, journaled progress, and —
// once finished — the assembled result.
type job struct {
	params sweepParams

	mu        sync.Mutex
	state     string
	completed int // rungs committed (journaled when persistence is on)
	errText   string
	result    *crophe.ResilienceSweep
}

func (j *job) snapshot() (state string, completed int, errText string, result *crophe.ResilienceSweep) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.completed, j.errText, j.result
}

// jobManager owns the sweep jobs: dedup by deterministic ID, crash
// recovery from the checkpoint directory, and coordinated drain.
type jobManager struct {
	dir    string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
}

func newJobManager(dir string) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{dir: dir, ctx: ctx, cancel: cancel, jobs: make(map[string]*job)}
}

// recover scans the checkpoint directory: finished journals become done
// jobs (their results replayed from the journaled rungs, so
// GET /v1/sweeps/{id} keeps answering across restarts), unfinished ones
// resume from the last completed rung. Unreadable journals become failed
// jobs rather than aborting startup — one corrupt file must not take the
// serving layer down with it.
func (m *jobManager) recover() error {
	if m.dir == "" {
		return nil
	}
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return err
	}
	paths, err := listJournals(m.dir)
	if err != nil {
		return err
	}
	for _, path := range paths {
		d, err := recoverJournal(path)
		if err != nil {
			m.mu.Lock()
			// The path's base name is "<id>.sweep.jsonl"; fall back on it
			// when even the header is gone.
			id := d.params.ID
			if id == "" {
				id = "corrupt:" + path
			}
			m.jobs[id] = &job{params: d.params, state: jobFailed, errText: err.Error()}
			m.mu.Unlock()
			continue
		}
		j := &job{params: d.params, state: jobRunning, completed: len(d.points)}
		if d.done {
			j.state = jobDone
			if j.result, err = replaySweep(m.ctx, d.params, d.points); err != nil {
				j.state, j.errText = jobFailed, err.Error()
			}
		}
		m.mu.Lock()
		m.jobs[d.params.ID] = j
		m.mu.Unlock()
		if !d.done {
			m.launch(j, d.points, d.keep, false)
		}
	}
	return nil
}

// start returns the job for params, creating and launching it if it does
// not exist yet. The boolean reports whether this call created it.
func (m *jobManager) start(params sweepParams) (*job, bool, error) {
	m.mu.Lock()
	if existing, ok := m.jobs[params.ID]; ok {
		m.mu.Unlock()
		return existing, false, nil
	}
	if m.ctx.Err() != nil {
		m.mu.Unlock()
		return nil, false, fmt.Errorf("manager is draining")
	}
	j := &job{params: params, state: jobRunning}
	m.jobs[params.ID] = j
	m.mu.Unlock()
	m.launch(j, nil, 0, true)
	return j, true, nil
}

// launch runs the sweep in a goroutine: resolve the design inputs, open
// the journal, and hand the rungs to RunResilienceSweepWith with an
// observe hook that checkpoints them serially, in step order.
func (m *jobManager) launch(j *job, doneRungs map[int]crophe.ResiliencePoint, keep int64, isNew bool) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer func() {
			// A panic outside the façade's own recovery (it already turns
			// degraded-stack panics into seed-tagged errors) must not kill
			// the process: fail the job and keep serving.
			if rec := recover(); rec != nil {
				j.fail(fmtInvariant(j.params.Seed, rec))
			}
		}()
		m.run(j, doneRungs, keep, isNew)
	}()
}

func (j *job) fail(msg string) {
	j.mu.Lock()
	j.state = jobFailed
	j.errText = msg
	j.mu.Unlock()
}

func (m *jobManager) run(j *job, doneRungs map[int]crophe.ResiliencePoint, keep int64, isNew bool) {
	hw, factory, err := lookup(j.params.HW, j.params.Workload)
	if err != nil {
		j.fail(err.Error())
		return
	}
	f, err := openJournal(m.dir, j.params, keep, isNew)
	if err != nil {
		j.fail(fmt.Sprintf("opening checkpoint journal: %v", err))
		return
	}
	if f != nil {
		defer f.Close()
	}

	var journalErr error
	observe := func(pt crophe.ResiliencePoint) {
		step := pt.Step
		if journalErr == nil {
			journalErr = appendLine(f, journalEntry{Step: &step, Point: &pt})
		}
		j.mu.Lock()
		j.completed++
		j.mu.Unlock()
	}

	deadline := time.Duration(j.params.DeadlineMS) * time.Millisecond
	sw, err := crophe.RunResilienceSweepWith(m.ctx, hw, factory(crophe.RotHoisted, 0), j.params.Seed, j.params.Steps, deadline,
		crophe.SweepWithResume(doneRungs), crophe.SweepWithJournal(observe))
	switch {
	case err != nil && m.ctx.Err() != nil:
		// Drain interrupted the sweep. The journal holds the committed
		// prefix of rungs; leave the job "running" so a restarted server
		// resumes it. (This process is exiting — the state only
		// matters if something reads it during the drain window.)
	case err != nil:
		j.fail(err.Error())
	case journalErr != nil:
		j.fail(fmt.Sprintf("checkpointing sweep: %v", journalErr))
	default:
		if err := appendLine(f, journalEntry{Done: true}); err != nil {
			j.fail(fmt.Sprintf("finalising checkpoint journal: %v", err))
			return
		}
		j.mu.Lock()
		j.state = jobDone
		j.result = sw
		j.mu.Unlock()
	}
}

// get looks a job up by ID.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// counts reports running and finished (done or failed) jobs.
func (m *jobManager) counts() (running, finished int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if st, _, _, _ := j.snapshot(); st == jobRunning {
			running++
		} else {
			finished++
		}
	}
	return running, finished
}

// stop cancels all running jobs (no further rung starts or is
// committed; in-flight rungs finish and are dropped, journals intact)
// and returns a channel closed once every job goroutine has exited.
func (m *jobManager) stop() <-chan struct{} {
	m.cancel()
	ch := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(ch)
	}()
	return ch
}

// replaySweep rebuilds a finished job's result from its journaled rungs
// through RunSweep's resume splice: every step is already done, so the
// runner never runs and no workload graph is built, and the result
// follows exactly the naming and baseline rules of a fresh sweep.
func replaySweep(ctx context.Context, params sweepParams, points map[int]crophe.ResiliencePoint) (*crophe.ResilienceSweep, error) {
	hw, ok := crophe.LookupHW(params.HW)
	if !ok {
		return nil, fmt.Errorf("unknown hw %q", params.HW)
	}
	missing := func(*fault.Machine) (fault.Outcome, error) {
		return fault.Outcome{}, errors.New("rung missing from the finished journal")
	}
	return fault.RunSweep(ctx, hw, params.Seed, params.Steps, missing, fault.WithResume(points))
}

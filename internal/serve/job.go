package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// Sweep states, as reported by Status.State. A sweep moves
// queued → running → done, or to canceled from either live state
// (DELETE, or server shutdown). There is no failed state: a bad spec
// is rejected at admission, and a bad grid cell fails that cell's row,
// never the sweep.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// Status is the wire form of a sweep's progress — GET /sweeps/{id}.
// The counters come from the sweep's private obs registry (the PR-5
// campaign gauges), so progress reporting rides the same metrics
// inventory the CLI's -progress flag does.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Tasks is the grid size; Rows the results already available on the
	// incremental stream (the canonical-order prefix length).
	Tasks int `json:"tasks"`
	Rows  int `json:"rows"`
	// TasksDone counts finished tasks (memo-served included);
	// TaskErrors the failed grid cells among them.
	TasksDone  uint64 `json:"tasks_done"`
	TaskErrors uint64 `json:"task_errors"`
	// MemoHits counts this sweep's tasks served from the shared store —
	// work some earlier (or concurrent) sweep already paid for.
	MemoHits uint64 `json:"memo_hits"`
	// RefsPlanned/RefsDone are the simulated-reference denominator and
	// progress. Planned assumes cold baselines; a warm store finishes
	// below plan, which is the sharing win, not a stall.
	RefsPlanned int64  `json:"refs_planned"`
	RefsDone    uint64 `json:"refs_done"`
	Err         string `json:"err,omitempty"`
}

// sweepJob is one admitted sweep: its runner (sharing the server
// store), its private metrics registry, and the canonical-order result
// re-sequencer the NDJSON stream and the final report read. Once the
// sweep finishes, release keeps only what a finished sweep serves: the
// spec, the trace, a status snapshot and, for canceled or traced
// sweeps, the result rows. A done, untraced sweep keeps no rows: the
// shared store holds every one of them, so its report and replay are
// rebuilt from the spec per request (rows).
type sweepJob struct {
	id     string
	spec   campaign.Spec
	store  *campaign.Store
	runner *campaign.Runner
	reg    *obs.Registry
	tracer *campaign.Tracer
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	state string
	tasks []campaign.Task
	out   []campaign.Result
	done  []bool
	// avail is the length of the contiguous completed prefix of out:
	// results are recorded in completion order but released to readers
	// strictly in expansion order, so the stream every subscriber sees
	// is the canonical one regardless of worker scheduling.
	avail  int
	notify chan struct{}
	err    error
	// final is the status sampled at release; status serves it once
	// the runner and registry are gone (reg == nil).
	final Status
}

func newSweepJob(id string, runner *campaign.Runner, reg *obs.Registry) *sweepJob {
	ctx, cancel := context.WithCancel(context.Background())
	return &sweepJob{
		id:     id,
		spec:   runner.Spec(),
		store:  runner.Store(),
		runner: runner,
		reg:    reg,
		ctx:    ctx,
		cancel: cancel,
		state:  StateQueued,
		notify: make(chan struct{}),
	}
}

// broadcast wakes every waiter; callers hold j.mu.
func (j *sweepJob) broadcast() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// begin sizes the re-sequencer for the expanded grid and moves the job
// to running.
func (j *sweepJob) begin(tasks []campaign.Task) {
	j.mu.Lock()
	j.state = StateRunning
	j.tasks = tasks
	j.out = make([]campaign.Result, len(tasks))
	j.done = make([]bool, len(tasks))
	j.broadcast()
	j.mu.Unlock()
}

// record is the runner's OnResult hook: slot the result by expansion
// index and advance the released prefix. Safe for concurrent workers.
func (j *sweepJob) record(t campaign.Task, res campaign.Result) {
	j.mu.Lock()
	if t.Index < len(j.out) && !j.done[t.Index] {
		j.out[t.Index] = res
		j.done[t.Index] = true
		for j.avail < len(j.out) && j.done[j.avail] {
			j.avail++
		}
	}
	j.broadcast()
	j.mu.Unlock()
}

// finalize fills every never-run slot with its Canceled placeholder,
// which completes the canonical rows (identical to what
// Runner.RunContext would have returned), and settles the terminal
// state.
func (j *sweepJob) finalize() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.out {
		if !j.done[i] {
			j.out[i] = campaign.Canceled(j.tasks[i].Cfg)
			j.done[i] = true
		}
	}
	j.avail = len(j.out)
	if err := j.ctx.Err(); err != nil {
		j.state = StateCanceled
		j.err = err
	} else {
		j.state = StateDone
	}
	j.broadcast()
}

// terminalLocked reports whether the job finished; callers hold j.mu.
func (j *sweepJob) terminalLocked() bool {
	return j.state == StateDone || j.state == StateCanceled
}

// release snapshots the status of a finished job, then drops the
// runner, its metrics registry, the task plan and the done flags, which
// only a running sweep needs. A done, untraced sweep drops its rows
// too: they are the shared store's values. A canceled sweep keeps its
// rows for the Canceled placeholders the store never holds, and a
// traced one for the recorded streams its rows carry (Result.Trace,
// what campaign.TraceOf merges).
func (j *sweepJob) release() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.final = j.statusLocked()
	if j.state == StateDone && j.tracer == nil {
		j.out = nil
	}
	// No row is released after this, so nobody needs waking again.
	j.runner, j.reg, j.tasks, j.done, j.notify = nil, nil, nil, nil, nil
}

// rows returns the released rows from index from on, whether the sweep
// has finished (then they run to the end of the grid), and the channel
// the next release of rows closes.
func (j *sweepJob) rows(from int) ([]campaign.Result, bool, <-chan struct{}, error) {
	j.mu.Lock()
	out, avail, terminal, ch := j.out, j.avail, j.terminalLocked(), j.notify
	j.mu.Unlock()
	if terminal && out == nil {
		all, err := j.fromStore()
		if err != nil {
			return nil, true, ch, err
		}
		return all[from:], true, ch, nil
	}
	// Released rows are immutable once avail covers them, so the slice
	// can be read outside the lock.
	return out[from:avail], terminal, ch, nil
}

// fromStore rebuilds a released done sweep's rows: it re-expands the
// spec and reads each task's result from the shared store, which holds
// every task a done sweep ran and never evicts.
func (j *sweepJob) fromStore() ([]campaign.Result, error) {
	tasks := j.spec.Expand()
	out := make([]campaign.Result, len(tasks))
	for i, t := range tasks {
		res, ok := j.store.Lookup(t.Cfg)
		if !ok {
			return nil, fmt.Errorf("sweep %s: row %d (%s) is missing from the shared store", j.id, i, t.Cfg.Key())
		}
		out[i] = res
	}
	return out, nil
}

// status samples the job for GET /sweeps/{id}.
func (j *sweepJob) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reg == nil {
		return j.final
	}
	return j.statusLocked()
}

// statusLocked samples the live job; callers hold j.mu.
func (j *sweepJob) statusLocked() Status {
	nTasks := len(j.tasks)
	if j.state == StateQueued {
		nTasks = j.spec.Size()
	}
	var errStr string
	if j.err != nil {
		errStr = j.err.Error()
	}
	return Status{
		ID:          j.id,
		State:       j.state,
		Tasks:       nTasks,
		Rows:        j.avail,
		TasksDone:   j.reg.Counter("campaign.tasks_done").Load(),
		TaskErrors:  j.reg.Counter("campaign.task_errors").Load(),
		MemoHits:    j.reg.Counter("campaign.memo_hits").Load(),
		RefsPlanned: j.reg.Gauge("campaign.refs_planned").Load(),
		RefsDone:    j.reg.Counter("soc.refs").Load(),
		Err:         errStr,
	}
}

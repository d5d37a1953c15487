//repro:deterministic
package campaign

import (
	"repro/internal/obs"
	"repro/internal/sim/authtree"
	"repro/internal/sim/soc"
)

// Metrics is the campaign's live instrumentation bundle: task
// lifecycle, memo effectiveness, worker utilization, every simulated
// system's counters (through the embedded soc bundle) and every
// finished task's tree-authenticator counters. All workers share the
// same pre-registered cells, so the registry view is the whole sweep's
// aggregate; the progress reporter
// derives refs/sec and ETA from it without touching the result path
// (emitted bytes stay independent of -jobs and of whether anyone is
// watching).
type Metrics struct {
	// TasksTotal / RefsPlanned are set once at expansion: the campaign's
	// denominator (planned refs include each unique baseline once).
	TasksTotal  *obs.Gauge
	RefsPlanned *obs.Gauge
	// TasksStarted / TasksDone / TaskErrors trace the task lifecycle
	// (queued→running→done); errors count failed grid cells.
	TasksStarted *obs.Counter
	TasksDone    *obs.Counter
	TaskErrors   *obs.Counter
	// MemoHits counts result-cache hits; BaselineRuns / BaselineHits the
	// baseline memo's computed-vs-served split (the sharing win).
	MemoHits     *obs.Counter
	BaselineRuns *obs.Gauge
	BaselineHits *obs.Gauge
	// WorkersBusy is the number of workers currently inside a task.
	WorkersBusy *obs.Gauge
	// SoC is installed on every simulated system (baseline and engine
	// runs alike), so soc.refs accumulates sweep-wide.
	SoC *soc.Metrics
	// NodeHits, NodeFetches, TagComputations, Verified and Violations
	// add up the authtree.Tree counters of each finished task.
	NodeHits, NodeFetches, TagComputations *obs.Counter
	Verified, Violations                   *obs.Counter
}

// NewMetrics registers the campaign inventory on r ("campaign.*",
// "authtree.*" and the soc inventory) and returns the bundle to pass
// to Runner.Observe.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		TasksTotal:      r.Gauge("campaign.tasks_total"),
		RefsPlanned:     r.Gauge("campaign.refs_planned"),
		TasksStarted:    r.Counter("campaign.tasks_started"),
		TasksDone:       r.Counter("campaign.tasks_done"),
		TaskErrors:      r.Counter("campaign.task_errors"),
		MemoHits:        r.Counter("campaign.memo_hits"),
		BaselineRuns:    r.Gauge("campaign.baseline_runs"),
		BaselineHits:    r.Gauge("campaign.baseline_hits"),
		WorkersBusy:     r.Gauge("campaign.workers_busy"),
		SoC:             soc.NewMetrics(r),
		NodeHits:        r.Counter("authtree.node_hits"),
		NodeFetches:     r.Counter("authtree.node_fetches"),
		TagComputations: r.Counter("authtree.tag_computations"),
		Verified:        r.Counter("authtree.verified"),
		Violations:      r.Counter("authtree.violations"),
	}
}

// addTree adds a finished task's tree counters (a no-op on a nil
// bundle: the runner is unobserved).
func (m *Metrics) addTree(t *authtree.Tree) {
	if m == nil {
		return
	}
	m.NodeHits.Add(t.NodeHits)
	m.NodeFetches.Add(t.NodeFetches)
	m.TagComputations.Add(t.Tags)
	m.Verified.Add(t.Verified)
	m.Violations.Add(t.Violations)
}

// Observe installs live metrics on the runner (nil to disable, the
// default). Must be called before Run; the bundle is shared by all
// workers.
func (r *Runner) Observe(m *Metrics) { r.m = m }

// plannedRefs is the sweep's total simulated-reference budget: each
// task's trace plus each unique plaintext baseline's trace (baselines
// are memoized under BaselineKey, so every distinct key simulates
// exactly once per Run).
func plannedRefs(tasks []Task) uint64 {
	var total uint64
	baselines := make(map[string]bool)
	for _, t := range tasks {
		total += uint64(t.Cfg.Refs)
		if k := t.Cfg.BaselineKey(); !baselines[k] {
			baselines[k] = true
			total += uint64(t.Cfg.Refs)
		}
	}
	return total
}

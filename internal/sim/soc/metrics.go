package soc

import (
	"repro/internal/obs"
	"repro/internal/sim/cache"
)

// publishEvery is the reference cadence at which Run adds the growth
// of its counters to the live metrics; Run publishes once more after
// the final flush. Readers see progress at most publishEvery references
// late, and the hot loop touches the shared atomic cells once per
// publishEvery references instead of on every event.
const publishEvery = 4096

// counterNames are the counters Run publishes (DESIGN.md §8), in the
// order of a counts reading.
var counterNames = [...]string{
	"soc.refs", "soc.instructions", "soc.cycles", "soc.engine_lines",
	"soc.auth_stalls", "soc.auth_violations",
	"l1.hits", "l1.misses", "l1.evictions", "l1.writebacks",
	"l2.hits", "l2.misses", "l2.evictions", "l2.writebacks",
	"hier.fills", "hier.writebacks", "hier.chip_fills", "hier.chip_writebacks",
}

// counts is one reading of the published counters.
type counts [len(counterNames)]uint64

// Metrics is the SoC's live instrumentation bundle: pre-registered obs
// metrics the hot loop publishes into with zero allocations. A nil
// *Config.Metrics (the default) runs the loop with the zero-value
// bundle — every publish is a nil-receiver no-op — so instrumentation
// is strictly additive: same simulation, same Report, same 0 allocs/ref.
//
// Counters are cumulative across runs and across every SoC sharing the
// bundle: the campaign installs one bundle on all its workers' systems,
// and the progress reporter reads whole-sweep refs/sec from it.
type Metrics struct {
	// counters are the counterNames cells: the growth of the Report
	// fields, each cache level's Stats and the hierarchy's transfer
	// counters.
	counters [len(counterNames)]*obs.Counter
	// TransferCycles is the per-line-transfer cost distribution
	// (power-of-two buckets): fills and writebacks at every boundary,
	// including verifier walks — the shape of the miss-path tail.
	TransferCycles *obs.Histogram
}

// NewMetrics registers the SoC metric inventory on r and returns the
// bundle to place in Config.Metrics. Registration is idempotent:
// bundles from the same registry share cells, which is how a whole
// campaign accumulates into one view.
func NewMetrics(r *obs.Registry) *Metrics {
	m := &Metrics{TransferCycles: r.Histogram("soc.transfer_cycles")}
	for i, name := range counterNames {
		m.counters[i] = r.Counter(name)
	}
	return m
}

// counts reads the published counters from rep and the hierarchy.
func (s *SoC) counts(rep *Report) counts {
	l1 := s.cache.Stats()
	var l2 cache.Stats
	if s.l2 != nil {
		l2 = s.l2.Stats()
	}
	h := s.hier
	return counts{
		rep.Refs, rep.Instructions, rep.Cycles, rep.EngineLines,
		rep.AuthStalls, rep.AuthViolations,
		l1.Hits, l1.Misses, l1.Evictions, l1.Writebacks,
		l2.Hits, l2.Misses, l2.Evictions, l2.Writebacks,
		h.Fills, h.Writebacks, h.ChipFills, h.ChipWritebacks,
	}
}

// publish adds each counter's growth since the reading in last to the
// live metrics and advances last.
func (s *SoC) publish(rep *Report, last *counts) {
	now := s.counts(rep)
	for i, c := range s.m.counters {
		c.Add(now[i] - last[i])
	}
	*last = now
}

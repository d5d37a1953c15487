package soc

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/rec"
	"repro/internal/sim/authtree"
	"repro/internal/sim/cache"
	"repro/internal/sim/trace"
)

// allocsPerRun is testing.AllocsPerRun with the collector parked for
// the duration of the measurement. AllocsPerRun reads the global
// MemStats.Mallocs delta, so a GC cycle landing inside the window
// attributes runtime-internal allocations to a loop that performs
// none — a known source of spurious nonzero readings in exactly the
// heap-size-sensitive way that makes it flake across unrelated edits.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Parking the pacer does not stop a concurrent cycle already in
	// flight; a blocking collection drains it before measuring.
	runtime.GC()
	return testing.AllocsPerRun(runs, f)
}

func instrumentedSystem(t *testing.T, reg *obs.Registry, twoLevel bool, rc *rec.Recorder) (*SoC, *authtree.Tree) {
	t.Helper()
	ver, err := authtree.New(authtree.Config{
		Key:       []byte("0123456789abcdef"),
		LineBytes: 32,
		Regions: []authtree.Region{
			{Base: 0, Bytes: 1 << 20},
			{Base: 0x4000_0000, Bytes: 8 << 20},
		},
		NodeCacheBytes: 4 << 10,
		Variant:        authtree.CounterTree,
	})
	if err != nil {
		t.Fatal(err)
	}
	ver.SetRecorder(rc)
	cfg := DefaultConfig()
	cfg.Recorder = rc
	if twoLevel {
		cfg.L2 = cache.Config{Size: 64 << 10, LineSize: 32, Ways: 8, WriteMode: cache.WriteBack}
	}
	cfg.Engine = fixedEngine{block: 16, readCost: 7, writeCost: 3}
	cfg.Verifier = ver
	cfg.Metrics = NewMetrics(reg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, ver
}

func obsTestSource() trace.RefSource {
	return trace.SequentialSource(trace.Config{
		Refs: 20000, Seed: 3, LoadFraction: 0.4, WriteFraction: 0.4,
		JumpRate: 0.02, Locality: 0.5,
	})
}

// The 0 allocs/ref contract must hold with the metrics registry
// installed: publishing is pointer-held atomics on pre-registered
// cells, so full instrumentation (SoC, both cache levels, hierarchy,
// tree verifier behind it) adds no allocation to the hot loop.
func TestHotLoopZeroAllocsInstrumented(t *testing.T) {
	for _, tc := range []struct {
		name     string
		twoLevel bool
	}{
		{"single-level", false},
		{"two-level", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			s, _ := instrumentedSystem(t, reg, tc.twoLevel, nil)
			src := obsTestSource()
			rep := s.Run(src) // warm DRAM pages, tag stores, node cache, buffers
			if rep.AuthStalls == 0 {
				t.Fatal("verifier charged no cycles; instrumented path not exercised")
			}
			if reg.Counter("soc.refs").Load() == 0 {
				t.Fatal("metrics did not publish; instrumentation not wired")
			}
			if avg := allocsPerRun(3, func() { s.Run(src) }); avg != 0 {
				t.Errorf("instrumented Run allocated %.1f times per 20k-ref run, want 0", avg)
			}
		})
	}
}

// After a run the live metrics must agree with the Report and Stats
// the same run returns: they are published from the same counters.
func TestMetricsMirrorReport(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := instrumentedSystem(t, reg, true, nil)
	rep := s.Run(obsTestSource())

	counters := map[string]uint64{
		"soc.refs":             rep.Refs,
		"soc.instructions":     rep.Instructions,
		"soc.cycles":           rep.Cycles,
		"soc.engine_lines":     rep.EngineLines,
		"soc.auth_stalls":      rep.AuthStalls,
		"soc.auth_violations":  rep.AuthViolations,
		"l1.hits":              rep.Cache.Hits,
		"l1.misses":            rep.Cache.Misses,
		"l1.evictions":         rep.Cache.Evictions,
		"l1.writebacks":        rep.Cache.Writebacks,
		"l2.hits":              rep.L2.Hits,
		"l2.misses":            rep.L2.Misses,
		"l2.evictions":         rep.L2.Evictions,
		"l2.writebacks":        rep.L2.Writebacks,
		"hier.fills":           s.hier.Fills,
		"hier.writebacks":      s.hier.Writebacks,
		"hier.chip_fills":      s.hier.ChipFills,
		"hier.chip_writebacks": s.hier.ChipWritebacks,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Load(); got != want {
			t.Errorf("%s = %d, want %d (report)", name, got, want)
		}
	}

	// Transfer histogram: one observation per costed line transfer,
	// i.e. per hierarchy event processed.
	h := reg.Histogram("soc.transfer_cycles").Snapshot()
	fills := reg.Counter("hier.fills").Load()
	wbs := reg.Counter("hier.writebacks").Load()
	if h.Count != fills+wbs {
		t.Errorf("transfer_cycles count %d != fills %d + writebacks %d", h.Count, fills, wbs)
	}
	if h.Count == 0 || h.Sum == 0 {
		t.Error("transfer histogram empty on a missing workload")
	}
	// Chip-boundary transfers are a subset of all transfers.
	if cf := reg.Counter("hier.chip_fills").Load(); cf == 0 || cf > fills {
		t.Errorf("chip_fills = %d (fills %d)", cf, fills)
	}

	// A second run on a shared registry accumulates rather than resets.
	before := reg.Counter("soc.refs").Load()
	s2, _ := instrumentedSystem(t, reg, true, nil)
	s2.Run(obsTestSource())
	if got := reg.Counter("soc.refs").Load(); got != before+rep.Refs {
		t.Errorf("shared registry refs = %d, want %d", got, before+rep.Refs)
	}
}

// liveRefsProbe is an Intruder that reads the live soc.refs cell once,
// at reference at.
type liveRefsProbe struct {
	reg  *obs.Registry
	at   uint64
	seen uint64
}

func (p *liveRefsProbe) Strike(refIndex uint64, _ trace.Ref, _ *SoC) {
	if refIndex == p.at {
		p.seen = p.reg.Counter("soc.refs").Load()
	}
}

// Progress stays live: a reader mid-run sees soc.refs at most one
// publish interval behind the references already processed.
func TestMetricsPublishMidRun(t *testing.T) {
	reg := obs.NewRegistry()
	probe := &liveRefsProbe{reg: reg, at: 10000}
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(reg)
	cfg.Intruder = probe
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Run(obsTestSource())
	if rep.Refs != 20000 {
		t.Fatalf("ran %d refs, want 20000", rep.Refs)
	}
	if probe.seen < probe.at-publishEvery || probe.seen > probe.at {
		t.Errorf("soc.refs read at ref %d = %d, want within [%d, %d]",
			probe.at, probe.seen, probe.at-publishEvery, probe.at)
	}
	if got := reg.Counter("soc.refs").Load(); got != rep.Refs {
		t.Errorf("soc.refs after Run = %d, want %d", got, rep.Refs)
	}
}

// An uninstrumented system (Config.Metrics nil) must behave
// identically: same Report, no metric traffic.
func TestNilMetricsIdentical(t *testing.T) {
	reg := obs.NewRegistry()
	inst, _ := instrumentedSystem(t, reg, true, nil)
	plainCfg := inst.cfg
	plainCfg.Metrics = nil
	plainCfg.Verifier = nil
	instCfg := inst.cfg
	instCfg.Verifier = nil

	a, err := New(plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(instCfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := a.Run(obsTestSource())
	rb := b.Run(obsTestSource())
	if ra != rb {
		t.Errorf("instrumented report differs from uninstrumented:\n%+v\n%+v", rb, ra)
	}
}

package main

// Outside assembly of one campaign grid cell from the same public parts
// campaign.Runner uses (core.Entry, core.BuildAuthenticator,
// core.WorkloadProfile, TaskConfig.Seed), so the traced runs can wrap
// each layer. replayCell's cycle counts must equal the campaign.Result
// the runner produced for the same TaskConfig; cell_test.go and every
// traced run check that they do.

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/edu"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// cellSoC is the system geometry of a grid point.
func cellSoC(cfg campaign.TaskConfig) (soc.Config, error) {
	sc := soc.DefaultConfig()
	sc.Cache.Size = cfg.CacheSize
	sc.Cache.LineSize = cfg.LineSize
	sc.Bus.WidthBytes = cfg.BusWidth
	if cfg.L2Size > 0 {
		sc.L2 = soc.DefaultL2Config(cfg.L2Size)
		sc.L2.LineSize = cfg.LineSize
	}
	p, err := edu.ParsePlacement(cfg.Placement)
	if err != nil {
		return soc.Config{}, err
	}
	sc.Placement = p
	return sc, nil
}

func cellSource(cfg campaign.TaskConfig) (trace.RefSource, error) {
	tc, ok := core.WorkloadProfile(cfg.Workload, cfg.Refs)
	if !ok {
		return nil, fmt.Errorf("workload %q has no profile", cfg.Workload)
	}
	tc.Seed = cfg.Seed()
	return trace.Sources[cfg.Workload](tc), nil
}

// replayCell simulates one grid cell (baseline=false) or its plaintext
// baseline (baseline=true) with every layer wrapped, folds the spans
// into lt, and returns the simulated cycle count.
func replayCell(cfg campaign.TaskConfig, baseline bool, lt *layerTotals) (uint64, error) {
	t0 := time.Now()
	sc, err := cellSoC(cfg)
	if err != nil {
		return 0, err
	}
	var eng edu.Engine = edu.Null{}
	key := ""
	if baseline {
		sc.Placement = edu.PlacementNone
	} else {
		entry, err := core.Entry(cfg.Engine)
		if err != nil {
			return 0, err
		}
		if eng, err = entry.Build(); err != nil {
			return 0, err
		}
		key = cfg.Engine
	}
	te, err := wrapEngine(eng)
	if err != nil {
		return 0, err
	}
	sc.Engine = te
	var tv *timedVerifier
	if !baseline {
		ver, err := core.BuildAuthenticator(cfg.Auth, cfg.LineSize)
		if err != nil {
			return 0, err
		}
		if ver != nil {
			tv = &timedVerifier{Verifier: ver}
			sc.Verifier = tv
		}
	}
	s, err := soc.New(sc)
	if err != nil {
		return 0, err
	}
	src, err := cellSource(cfg)
	if err != nil {
		return 0, err
	}
	ts := &timedSource{RefSource: src}
	lt.setup += time.Since(t0)
	t1 := time.Now()
	rep := s.Run(ts)
	lt.addRun(key, rep.Refs, rep.EngineLines, time.Since(t1), te, tv, ts)
	return rep.Cycles, nil
}

// replayResults replays every successful result and its baseline on
// `workers` goroutines (one baseline per BaselineKey, as the store
// memoizes them), checks each cycle count against the result, and
// returns the merged layer totals and the replay wall time.
func replayResults(results []campaign.Result, workers int) (*layerTotals, time.Duration, error) {
	type job struct {
		cfg      campaign.TaskConfig
		baseline bool
		want     uint64
	}
	var jobs []job
	seen := map[string]bool{}
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		if k := r.BaselineKey(); !seen[k] {
			seen[k] = true
			jobs = append(jobs, job{r.TaskConfig, true, r.BaseCycles})
		}
		jobs = append(jobs, job{r.TaskConfig, false, r.Cycles})
	}
	parts := make([]*layerTotals, workers)
	errs := make([]error, workers)
	t0 := time.Now()
	forEach(workers, len(jobs), func(w, i int) {
		if parts[w] == nil {
			parts[w] = newLayerTotals()
		}
		j := jobs[i]
		got, err := replayCell(j.cfg, j.baseline, parts[w])
		if err == nil && got != j.want {
			err = fmt.Errorf("replay of %q (baseline %v): %d cycles, campaign reported %d", j.cfg.Key(), j.baseline, got, j.want)
		}
		if err != nil && errs[w] == nil {
			errs[w] = err
		}
	})
	wall := time.Since(t0)
	lt := newLayerTotals()
	for w, p := range parts {
		if errs[w] != nil {
			return nil, 0, errs[w]
		}
		if p != nil {
			lt.merge(p)
		}
	}
	return lt, wall, nil
}

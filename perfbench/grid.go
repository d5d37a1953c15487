package main

// grid-cipher: the default survey grid (8 engines × 6 trace workloads,
// auth none) through campaign.Runner at `jobs` workers on a fresh Store,
// so every result is a store miss and the cipher kernels dominate.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/campaign"
)

const gridRefs = 60000

// gridSpec offsets the refs axis by the seed: refs is part of every
// cell's point key, so each cell's hash-derived trace seed changes.
func gridSpec(seed int64) campaign.Spec {
	return campaign.Spec{
		Workloads: campaign.WorkloadNames(),
		Refs:      []int{gridRefs + int((seed%1000+1000)%1000)},
	}
}

// reportDigest hashes the canonical JSON report.
func reportDigest(rep *campaign.Report) (string, error) {
	var b bytes.Buffer
	if err := campaign.EmitJSON(&b, rep); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// gridRefsSimulated counts the references a cold-store grid simulated:
// every cell plus one baseline per baseline key.
func gridRefsSimulated(rep *campaign.Report, baselineRuns int64) int64 {
	var n int64
	for _, r := range rep.Results {
		n += int64(r.Refs)
	}
	return n + baselineRuns*int64(rep.Spec.Refs[0])
}

// gridOnce runs one grid on a fresh store and returns the report and
// its wall time.
func gridOnce(spec campaign.Spec, jobs int) (*campaign.Report, *campaign.Runner, time.Duration, error) {
	r, err := campaign.NewRunner(spec)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := time.Now()
	rep := r.Run(jobs)
	return rep, r, time.Since(t0), nil
}

// firstRows times a grid on a fresh store from its start to its first
// finished cell, cancelling it there, n times. One grid gives a single
// sample of a few milliseconds; the repeats give a stable median.
func firstRows(spec campaign.Spec, jobs, n int) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := range out {
		r, err := campaign.NewRunner(spec)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		t0 := time.Now()
		r.OnResult(func(campaign.Task, campaign.Result) {
			once.Do(func() { out[i] = time.Since(t0); cancel() })
		})
		_, err = r.RunContext(ctx, jobs)
		cancel()
		if !errors.Is(err, context.Canceled) {
			return nil, fmt.Errorf("first-row probe: grid ended with %v, want cancellation", err)
		}
	}
	return out, nil
}

func gridSetup(spec campaign.Spec) ([]time.Duration, error) {
	setup := make([]time.Duration, 101)
	for i := range setup {
		t0 := time.Now()
		if _, err := campaign.NewRunner(spec); err != nil {
			return nil, err
		}
		setup[i] = time.Since(t0)
	}
	return setup, nil
}

func runGrid(o opts) (*runOut, error) {
	spec := gridSpec(o.seed)
	setup, err := gridSetup(spec)
	if err != nil {
		return nil, err
	}
	out := &runOut{setup: setup}
	start := time.Now()
	// A grid takes seconds, so the last one starts only if at least
	// half of it fits before the deadline.
	for len(out.ops) == 0 || time.Since(start)+out.ops[len(out.ops)-1]/2 < o.seconds {
		rep, r, d, err := gridOnce(spec, o.jobs)
		if err != nil {
			return nil, err
		}
		dg, err := reportDigest(rep)
		if err != nil {
			return nil, err
		}
		if out.digest == "" {
			out.digest = dg
		}
		out.attempted += int64(len(rep.Results))
		for _, res := range rep.Results {
			if res.Err != "" {
				out.failed++
			}
		}
		if dg != out.digest {
			fmt.Printf("grid repetition %d: digest %s differs from the first repetition's\n", len(out.ops)+1, dg)
			out.failed++
		}
		out.ops = append(out.ops, d)
		out.refs += gridRefsSimulated(rep, r.BaselineRuns())
	}
	out.wall, out.peakRSS = time.Since(start), peakRSSMB()
	out.firstRow, err = firstRows(spec, o.jobs, 25)
	return out, err
}

// traceGrid runs the grid three times: untraced through Runner.Run (the
// reference throughput), through Plan/Exec on this benchmark's own pool
// with each task timed (campaign layer), and as an outside replay of
// every cell with the layers wrapped (trace, edu, auth, soc).
func traceGrid(o opts) (*traceOut, error) {
	spec := gridSpec(o.seed)
	layer := map[string]float64{}

	g0 := sampleGo()
	repA, rA, wallA, err := gridOnce(spec, o.jobs)
	if err != nil {
		return nil, err
	}
	refs := gridRefsSimulated(repA, rA.BaselineRuns())
	goMetrics(layer, g0, sampleGo(), refs)
	digest, err := reportDigest(repA)
	if err != nil {
		return nil, err
	}

	r, err := campaign.NewRunner(spec)
	if err != nil {
		return nil, err
	}
	tasks := r.Plan()
	results := make([]campaign.Result, len(tasks))
	exec := make([]time.Duration, len(tasks))
	t0 := time.Now()
	forEach(o.jobs, len(tasks), func(_, i int) {
		t := time.Now()
		results[i] = r.Exec(tasks[i])
		exec[i] = time.Since(t)
	})
	wallB := time.Since(t0)
	repB := &campaign.Report{Spec: r.Spec(), Results: results, Summary: campaign.Summarize(results)}
	if dB, err := reportDigest(repB); err != nil {
		return nil, err
	} else if dB != digest {
		return nil, fmt.Errorf("Plan/Exec grid digest %s differs from Runner.Run's %s", dB, digest)
	}
	var busy time.Duration
	for _, d := range exec {
		busy += d
	}
	st := r.Store()
	layer["campaign.task_ms_p50"] = ms(quantile(exec, 0.5))
	layer["campaign.task_ms_max"] = ms(quantile(exec, 1))
	layer["campaign.pool_busy_frac"] = busy.Seconds() / (float64(o.jobs) * wallB.Seconds())
	layer["campaign.result_hit_ratio"] = ratio(st.ResultHits(), st.ResultRuns())
	layer["campaign.baseline_hit_ratio"] = ratio(st.BaselineHits(), st.BaselineRuns())
	layer["campaign.emit_ms"] = ms(emitTime([]*campaign.Report{repB}))

	lt, wallC, err := replayResults(results, o.jobs)
	if err != nil {
		return nil, err
	}
	if err := layerMetrics(layer, lt); err != nil {
		return nil, err
	}
	overhead(layer, "refs_per_s (Runner.Run vs wrapped replay)", float64(refs)/wallA.Seconds(), float64(lt.refs)/wallC.Seconds())
	if _, err := probes(layer, o.seed); err != nil {
		return nil, err
	}

	// The ledger covers the wrapped replay alone, one execution; what no
	// wrapper times (the cache, DRAM and bus inside soc.Run) is left
	// unexplained.
	capacity := time.Duration(o.jobs) * wallC
	l := ledger{unit: "ms", what: fmt.Sprintf("worker time of the wrapped replay of one grid (%d workers × wall)", o.jobs),
		total: ms(capacity)}
	l.add("pool idle", ms(capacity-lt.setup-lt.run))
	l.add("cell set-up", ms(lt.setup))
	l.add("trace", ms(lt.source.busy()))
	l.add("edu", ms(lt.engine))
	l.add("auth", ms(lt.auth()))
	layer["ledger.unexplained_share"] = l.share()
	return &traceOut{layer: layer, ledger: l, digest: digest}, nil
}

func ratio(hits, runs int64) float64 {
	if hits+runs == 0 {
		return 0
	}
	return float64(hits) / float64(hits+runs)
}

// emitTime is the median time campaign.Emit takes to write one of the
// reports as CSV.
func emitTime(reps []*campaign.Report) time.Duration {
	var d []time.Duration
	var b bytes.Buffer
	for range 5 {
		for _, rep := range reps {
			b.Reset()
			t := time.Now()
			if err := campaign.Emit(&b, rep, "csv"); err != nil {
				fail(err)
			}
			d = append(d, time.Since(t))
		}
	}
	return quantile(d, 0.5)
}

// layerMetrics fills the metrics the wrapped replays measure and checks
// that the engine wrapper saw every line the reports counted.
func layerMetrics(layer map[string]float64, lt *layerTotals) error {
	if lt.engineLines != lt.lines {
		return fmt.Errorf("engine wrapper counted %d lines, reports %d", lt.engineLines, lt.lines)
	}
	run := float64(lt.run.Nanoseconds())
	layer["trace.next_ns_per_ref"] = lt.source.perCall()
	layer["edu.lines"] = float64(lt.lines)
	layer["edu.busy_share"] = float64(lt.engine.Nanoseconds()) / run
	for _, e := range surveyEngines {
		layer["edu.decrypt_ns_per_line."+e] = lt.dec[e].perCall()
		layer["edu.encrypt_ns_per_line."+e] = lt.enc[e].perCall()
	}
	layer["auth.verify_calls"] = float64(lt.verify.n)
	layer["auth.update_calls"] = float64(lt.update.n)
	layer["auth.verify_ns_per_call"] = lt.verify.perCall()
	layer["auth.update_ns_per_call"] = lt.update.perCall()
	layer["auth.busy_share"] = float64(lt.auth().Nanoseconds()) / run
	layer["soc.self_ns_per_ref"] = float64(lt.self().Nanoseconds()) / float64(lt.refs)
	return nil
}

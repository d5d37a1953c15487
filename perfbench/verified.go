package main

// verified-l2: the plaintext engine (no cipher work), a ctree verifier
// and a 64 KiB L2 with the unit at the outer boundary, running the
// sequential profile on caches, node cache and DRAM warmed by an
// untimed pass. Each timed pass is one soc.Run over the same 2^19-ref
// stream on the same warm system.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/edu"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

const passRefs = 1 << 19

// verifiedGeometry is the system verified-l2 simulates, without its
// engine and verifier.
func verifiedGeometry() soc.Config {
	cfg := soc.DefaultConfig()
	cfg.L2 = soc.DefaultL2Config(64 << 10)
	return cfg
}

func verifiedSource(seed int64) trace.RefSource {
	tc, _ := core.WorkloadProfile("sequential", passRefs)
	tc.Seed = seed
	return trace.Sources["sequential"](tc)
}

// verifiedSystem is one warm verified-l2 system: the SoC after its
// warm-up pass, the source it replays and the warm-up report. With wrap,
// the engine, verifier and source carry busy-time accounting.
type verifiedSystem struct {
	soc  *soc.SoC
	src  trace.RefSource
	warm soc.Report
	eng  *timedEngine
	ver  *timedVerifier
	tsrc *timedSource
}

func newVerified(seed int64, wrap bool) (*verifiedSystem, error) {
	ver, err := core.BuildAuthenticator("ctree", 32)
	if err != nil {
		return nil, err
	}
	cfg := verifiedGeometry()
	cfg.Engine, cfg.Verifier = edu.Null{}, ver
	v := &verifiedSystem{src: verifiedSource(seed)}
	if wrap {
		if v.eng, err = wrapEngine(edu.Null{}); err != nil {
			return nil, err
		}
		v.ver = &timedVerifier{Verifier: ver}
		v.tsrc = &timedSource{RefSource: v.src}
		cfg.Engine, cfg.Verifier, v.src = v.eng, v.ver, v.tsrc
	}
	if v.soc, err = soc.New(cfg); err != nil {
		return nil, err
	}
	v.warm = v.soc.Run(v.src)
	if wrap {
		*v.eng = timedEngine{Engine: v.eng.Engine}
		*v.ver = timedVerifier{Verifier: v.ver.Verifier}
		*v.tsrc = timedSource{RefSource: v.tsrc.RefSource}
	}
	return v, nil
}

// checkPass rejects a pass that did not simulate the whole stream or
// saw a verification failure (nothing tampers with memory here).
func checkPass(rep soc.Report) error {
	if rep.Refs != passRefs || rep.AuthViolations != 0 {
		return fmt.Errorf("verified pass: %d refs (want %d), %d violations", rep.Refs, passRefs, rep.AuthViolations)
	}
	return nil
}

// passDigest hashes every field of the warm-up report and of the first
// timed pass's report; both are functions of the seed alone.
func passDigest(warm, first soc.Report) (string, error) {
	b, err := json.Marshal([]soc.Report{warm, first})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// passRun is what a sequence of timed passes measured.
type passRun struct {
	ops    []time.Duration
	first  soc.Report // the first pass's report
	lines  uint64     // Σ Report.EngineLines
	failed int64
}

// passes runs timed passes on v until d has elapsed.
func (v *verifiedSystem) passes(d time.Duration) passRun {
	var p passRun
	start := time.Now()
	for time.Since(start) < d {
		t := time.Now()
		rep := v.soc.Run(v.src)
		p.ops = append(p.ops, time.Since(t))
		if len(p.ops) == 1 {
			p.first = rep
		}
		p.lines += rep.EngineLines
		if err := checkPass(rep); err != nil {
			fmt.Println(err)
			p.failed++
		}
	}
	return p
}

func runVerified(o opts) (*runOut, error) {
	out := &runOut{}
	var v *verifiedSystem
	for range 3 {
		// Drop the previous system first, so the peak RSS is one
		// system's, not however many the collector has not yet freed.
		v = nil
		runtime.GC()
		t := time.Now()
		var err error
		if v, err = newVerified(o.seed, false); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t))
	}
	start := time.Now()
	p := v.passes(o.seconds)
	out.wall, out.peakRSS = time.Since(start), peakRSSMB()
	out.ops, out.firstRow = p.ops, p.ops
	out.refs = int64(len(p.ops)) * passRefs
	out.attempted, out.failed = int64(len(p.ops)), p.failed
	var err error
	out.digest, err = passDigest(v.warm, p.first)
	return out, err
}

// traceVerified measures half the run untraced (reference throughput,
// Go runtime costs) and half with every layer wrapped.
func traceVerified(o opts) (*traceOut, error) {
	layer := map[string]float64{}
	half := o.seconds / 2

	vA, err := newVerified(o.seed, false)
	if err != nil {
		return nil, err
	}
	g0 := sampleGo()
	t0 := time.Now()
	pA := vA.passes(half)
	wallA := time.Since(t0)
	refsA := int64(len(pA.ops)) * passRefs
	goMetrics(layer, g0, sampleGo(), refsA)
	digest, err := passDigest(vA.warm, pA.first)
	if err != nil {
		return nil, err
	}

	vB, err := newVerified(o.seed, true)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	pB := vB.passes(half)
	wallB := time.Since(t1)
	if pA.failed+pB.failed > 0 {
		return nil, fmt.Errorf("%d verified passes failed", pA.failed+pB.failed)
	}
	if dB, err := passDigest(vB.warm, pB.first); err != nil {
		return nil, err
	} else if dB != digest {
		return nil, fmt.Errorf("wrapped digest %s differs from untraced %s", dB, digest)
	}
	var run time.Duration
	for _, d := range pB.ops {
		run += d
	}
	lt := newLayerTotals()
	refsB := int64(len(pB.ops)) * passRefs
	lt.addRun("", uint64(refsB), pB.lines, run, vB.eng, vB.ver, vB.tsrc)
	if err := layerMetrics(layer, lt); err != nil {
		return nil, err
	}
	overhead(layer, "refs_per_s", float64(refsA)/wallA.Seconds(), float64(refsB)/wallB.Seconds())

	cp, err := probes(layer, o.seed)
	if err != nil {
		return nil, err
	}
	perRef := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(lt.refs) }
	l := ledger{unit: "ns/ref", what: "wrapped soc.Run time per reference", total: perRef(lt.run)}
	l.add("trace", perRef(lt.source.busy()))
	l.add("edu", perRef(lt.engine))
	l.add("auth", perRef(lt.auth()))
	l.add("cache (standalone replay)", layer["cache.access_ns_per_ref"])
	l.add("dram (replayed chip events)", (layer["dram.read_ns_per_line"]*float64(len(cp.fills))+
		layer["dram.write_ns_per_line"]*float64(len(cp.writebacks)))/float64(cp.refs))
	layer["ledger.unexplained_share"] = l.share()
	return &traceOut{layer: layer, ledger: l, digest: digest}, nil
}

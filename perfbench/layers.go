package main

// Busy-time accounting at the per-reference layer boundaries of soc.Run.
// The wrappers sit outside the program: soc.Run calls them through the
// edu.Engine, edu.Verifier and trace.RefSource interfaces it already
// takes, so the simulator itself is unchanged and its reports stay
// byte-identical (layers_test.go checks every survey engine).

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/edu"
	"repro/internal/sim/trace"
)

// clockCost is the median cost of one time.Now pair, subtracted from
// every measured span so a span reports the wrapped call alone.
var clockCost = calibrateClock()

func calibrateClock() time.Duration {
	d := make([]time.Duration, 2001)
	for i := range d {
		t := time.Now()
		d[i] = time.Since(t)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func since(t time.Time) time.Duration {
	if d := time.Since(t) - clockCost; d > 0 {
		return d
	}
	return 0
}

// sampleEvery is the timing sample rate: a wrapper counts every call
// but times only every sampleEvery-th, which keeps the clock reads from
// dominating calls that cost tens of nanoseconds.
const sampleEvery = 16

// acct is one busy-time accumulator: every call counted, sampled calls
// timed. Each instance belongs to one goroutine (one SoC); merge after.
type acct struct {
	n, sampled int64
	sampledNs  time.Duration
}

// timed counts a call and reports whether to time it.
func (a *acct) timed() bool {
	a.n++
	return a.n%sampleEvery == 0
}

func (a *acct) add(d time.Duration) { a.sampled++; a.sampledNs += d }

func (a *acct) merge(b acct) { a.n += b.n; a.sampled += b.sampled; a.sampledNs += b.sampledNs }

// perCall is the mean sampled span in ns, 0 when nothing was sampled.
func (a acct) perCall() float64 {
	if a.sampled == 0 {
		return 0
	}
	return float64(a.sampledNs.Nanoseconds()) / float64(a.sampled)
}

// busy estimates the time spent in all calls.
func (a acct) busy() time.Duration { return time.Duration(a.perCall() * float64(a.n)) }

// timedEngine accounts the engine's per-line calls: the data path
// (EncryptLine/DecryptLine) and the per-line timing model
// (ReadExtraCycles/WriteExtraCycles). Per-run calls forward untimed and
// land in soc self time.
type timedEngine struct {
	edu.Engine
	enc, dec, model acct
}

// wrapEngine refuses engines with optional extensions the wrapper does
// not forward (soc.SoC type-asserts edu.TransferSizer), so a wrapped
// run can never silently take a different code path.
func wrapEngine(e edu.Engine) (*timedEngine, error) {
	if _, ok := e.(edu.TransferSizer); ok {
		return nil, fmt.Errorf("engine %s implements edu.TransferSizer, which the timing wrapper does not forward", e.Name())
	}
	return &timedEngine{Engine: e}, nil
}

func (e *timedEngine) EncryptLine(addr uint64, dst, src []byte) {
	if !e.enc.timed() {
		e.Engine.EncryptLine(addr, dst, src)
		return
	}
	t := time.Now()
	e.Engine.EncryptLine(addr, dst, src)
	e.enc.add(since(t))
}

func (e *timedEngine) DecryptLine(addr uint64, dst, src []byte) {
	if !e.dec.timed() {
		e.Engine.DecryptLine(addr, dst, src)
		return
	}
	t := time.Now()
	e.Engine.DecryptLine(addr, dst, src)
	e.dec.add(since(t))
}

func (e *timedEngine) ReadExtraCycles(addr uint64, lineBytes int, transfer uint64) uint64 {
	if !e.model.timed() {
		return e.Engine.ReadExtraCycles(addr, lineBytes, transfer)
	}
	t := time.Now()
	c := e.Engine.ReadExtraCycles(addr, lineBytes, transfer)
	e.model.add(since(t))
	return c
}

func (e *timedEngine) WriteExtraCycles(addr uint64, lineBytes int) uint64 {
	if !e.model.timed() {
		return e.Engine.WriteExtraCycles(addr, lineBytes)
	}
	t := time.Now()
	c := e.Engine.WriteExtraCycles(addr, lineBytes)
	e.model.add(since(t))
	return c
}

func (e *timedEngine) busy() time.Duration { return e.enc.busy() + e.dec.busy() + e.model.busy() }

// timedVerifier accounts the authenticator's per-line calls.
type timedVerifier struct {
	edu.Verifier
	verify, update acct
}

func (v *timedVerifier) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	if !v.verify.timed() {
		return v.Verifier.VerifyRead(addr, ct)
	}
	t := time.Now()
	stall, ok := v.Verifier.VerifyRead(addr, ct)
	v.verify.add(since(t))
	return stall, ok
}

func (v *timedVerifier) UpdateWrite(addr uint64, ct []byte) uint64 {
	if !v.update.timed() {
		return v.Verifier.UpdateWrite(addr, ct)
	}
	t := time.Now()
	stall := v.Verifier.UpdateWrite(addr, ct)
	v.update.add(since(t))
	return stall
}

// timedSource accounts reference generation.
type timedSource struct {
	trace.RefSource
	next acct
}

func (s *timedSource) Next() (trace.Ref, bool) {
	if !s.next.timed() {
		return s.RefSource.Next()
	}
	t := time.Now()
	r, ok := s.RefSource.Next()
	s.next.add(since(t))
	return r, ok
}

// layerTotals sums the wrapped layers over any number of runs.
type layerTotals struct {
	runs        int
	refs, lines int64 // refs simulated; Σ Report.EngineLines
	run         time.Duration
	source      acct
	engineLines int64           // lines the engine wrappers transformed
	engine      time.Duration   // all engines, data path + timing model
	enc, dec    map[string]acct // data path per survey engine key
	verify      acct
	update      acct
	setup       time.Duration // engine, verifier, soc.New and source construction
}

func newLayerTotals() *layerTotals {
	return &layerTotals{enc: map[string]acct{}, dec: map[string]acct{}}
}

// addRun folds one wrapped soc.Run into the totals. engineKey names the
// survey engine ("" for the plaintext engine, which has no per-engine
// metric); v may be nil.
func (l *layerTotals) addRun(engineKey string, refs, lines uint64, run time.Duration, e *timedEngine, v *timedVerifier, s *timedSource) {
	l.runs++
	l.refs += int64(refs)
	l.lines += int64(lines)
	l.run += run
	l.source.merge(s.next)
	l.engineLines += e.enc.n + e.dec.n
	l.engine += e.busy()
	if engineKey != "" {
		enc, dec := l.enc[engineKey], l.dec[engineKey]
		enc.merge(e.enc)
		dec.merge(e.dec)
		l.enc[engineKey], l.dec[engineKey] = enc, dec
	}
	if v != nil {
		l.verify.merge(v.verify)
		l.update.merge(v.update)
	}
}

func (l *layerTotals) merge(o *layerTotals) {
	l.runs += o.runs
	l.refs += o.refs
	l.lines += o.lines
	l.run += o.run
	l.source.merge(o.source)
	l.engineLines += o.engineLines
	l.engine += o.engine
	for k, a := range o.enc {
		b := l.enc[k]
		b.merge(a)
		l.enc[k] = b
	}
	for k, a := range o.dec {
		b := l.dec[k]
		b.merge(a)
		l.dec[k] = b
	}
	l.verify.merge(o.verify)
	l.update.merge(o.update)
	l.setup += o.setup
}

func (l *layerTotals) auth() time.Duration { return l.verify.busy() + l.update.busy() }

// self is soc.Run time outside the wrapped layers: cache hierarchy,
// DRAM, bus and the simulator's own bookkeeping.
func (l *layerTotals) self() time.Duration {
	return l.run - l.source.busy() - l.engine - l.auth()
}

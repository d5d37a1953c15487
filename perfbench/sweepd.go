package main

// sweepd-mixed: an in-process serve.Server on a loopback listener,
// driven by a closed loop of `jobs` clients. Each client POSTs a sweep,
// drains its NDJSON result stream and GETs the CSV report. Every sweep
// extends an earlier sweep's refs axis with a fresh value, so half its
// cells are shared-store hits and half are misses; every server CSV is
// compared, after the timed phase, with the campaign's own report.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

const (
	// A fresh refs value is freshLo plus a distinct offset below
	// freshBand, so cells cost about the same however far a run gets;
	// the band averages the 2 000-reference cells of the service's
	// typical sweep. Past the band, offsets keep counting up.
	freshLo   = 1000
	freshBand = 2000
	// freshStride walks the band in a spread-out order (coprime to it).
	freshStride = 1237
	// digestSweeps is how many leading schedule entries the stats
	// digest covers: the campaign's CSVs for them, which every server
	// CSV of the run must equal.
	digestSweeps = 16
)

// sweepEngines alternate between sweeps.
var sweepEngines = []string{"best", "ds5002"}

// sweepSpec is the grid a sweep submits: 6 cells per refs value.
func sweepSpec(engine string, refs []int) campaign.Spec {
	return campaign.Spec{
		Engines:   []string{engine},
		Auths:     []string{"none", "ctree"},
		Workloads: []string{"sequential", "pointer-chase", "firmware"},
		Refs:      refs,
	}
}

// freshRefs is the fresh refs value of the i-th sweep of a schedule
// whose band walk starts at offset.
func freshRefs(offset, i int) int {
	if i >= freshBand {
		return freshLo + i
	}
	return freshLo + (offset+i*freshStride)%freshBand
}

// schedule is the seed's sweep sequence. Sweep i runs engine i mod 2 at
// a fresh refs value and, from the third sweep on, also at the fresh
// value of a seed-chosen earlier sweep of the same engine, whose six
// cells the store already holds. One sweep thus mixes hits and misses
// half and half, which keeps the latency distribution unimodal: a
// whole-sweep hit and a whole-sweep miss differ thirtyfold, and a median
// between two such modes moves by 10-20% from seed to seed.
type schedule struct {
	mu     sync.Mutex
	rng    *rand.Rand
	offset int
	specs  []campaign.Spec
}

func newSchedule(seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed))
	return &schedule{rng: rng, offset: rng.Intn(freshBand)}
}

// at returns sweep i's spec, extending the sequence as needed.
func (s *schedule) at(i int) campaign.Spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := len(s.specs); n <= i; n++ {
		engine, refs := sweepEngines[n%2], []int{freshRefs(s.offset, n)}
		if n >= 2 {
			j := n%2 + 2*s.rng.Intn(n/2) // an earlier sweep of the same engine
			refs = []int{freshRefs(s.offset, j), refs[0]}
		}
		s.specs = append(s.specs, sweepSpec(engine, refs))
	}
	return s.specs[i]
}

// connCounter tracks the client connections open at once.
type connCounter struct {
	mu        sync.Mutex
	open, max int
}

// peak is the most connections that were open at once.
func (c *connCounter) peak() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.max
}

func (c *connCounter) change(d int) {
	c.mu.Lock()
	c.open += d
	c.max = max(c.max, c.open)
	c.mu.Unlock()
}

type countedConn struct {
	net.Conn
	cc   *connCounter
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.cc.change(-1) })
	return c.Conn.Close()
}

// newClient is an HTTP client that opens at most `conns` connections.
func newClient(conns int, cc *connCounter) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			cc.change(1)
			return &countedConn{Conn: c, cc: cc}, nil
		},
	}}
}

// liveServer is a started sweep service on a loopback listener.
type liveServer struct {
	srv   *serve.Server
	store *campaign.Store
	hs    *http.Server
	base  string
	done  chan error
}

// startServer starts a service with `workers` pool workers and returns
// once /healthz answers.
func startServer(workers int, client *http.Client) (*liveServer, error) {
	store := campaign.NewStore()
	srv := serve.New(serve.Config{Store: store, Workers: workers})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &liveServer{srv: srv, store: store, hs: &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	for {
		resp, err := client.Get(l.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		select {
		case err := <-l.done:
			srv.Close()
			return nil, fmt.Errorf("sweep service stopped before /healthz answered: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}

func (l *liveServer) close(client *http.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := l.srv.Close(); err == nil {
		err = cerr
	}
	client.CloseIdleConnections()
	return err
}

// sweepRec is one client sweep, timed at each request boundary.
type sweepRec struct {
	idx  int
	spec campaign.Spec
	// post: POST sent → 202 read; firstRow: POST sent → first NDJSON
	// row; drained: POST sent → stream end; total: POST sent → CSV read.
	post, firstRow, drained, total time.Duration
	csv                            []byte
	rejected                       bool // 429
	err                            error
}

// doSweep runs one sweep against base.
func doSweep(client *http.Client, base string, idx int, spec campaign.Spec) sweepRec {
	rec := sweepRec{idx: idx, spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		rec.err = err
		return rec
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		rec.rejected = resp.StatusCode == http.StatusTooManyRequests
		rec.err = fmt.Errorf("POST /sweeps: %s", resp.Status)
		return rec
	}
	if err != nil {
		rec.err = fmt.Errorf("POST /sweeps: %w", err)
		return rec
	}
	rec.post = time.Since(t0)

	resp, err = client.Get(base + "/sweeps/" + st.ID + "/results")
	if err != nil {
		rec.err = err
		return rec
	}
	rows := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if rows == 0 {
			rec.firstRow = time.Since(t0)
		}
		rows++
		var row struct {
			Err string `json:"err"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil || row.Err != "" {
			rec.err = fmt.Errorf("result row %d: %v %s", rows, err, row.Err)
		}
	}
	if err := sc.Err(); err != nil && rec.err == nil {
		rec.err = err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && rec.err == nil {
		rec.err = fmt.Errorf("GET results: %s", resp.Status)
	}
	if rows != spec.Size() && rec.err == nil {
		rec.err = fmt.Errorf("stream carried %d rows, want %d", rows, spec.Size())
	}
	rec.drained = time.Since(t0)

	resp, err = client.Get(base + "/sweeps/" + st.ID + "/result?format=csv")
	if err != nil {
		rec.err = err
		return rec
	}
	rec.csv, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET result: %s", resp.Status)
	}
	if err != nil && rec.err == nil {
		rec.err = err
	}
	rec.total = time.Since(t0)
	return rec
}

// load drives the closed loop: `clients` goroutines each run sweeps
// back to back, taking the next schedule entry, until d has elapsed;
// in-flight sweeps then finish.
func load(client *http.Client, base string, sched *schedule, clients int, d time.Duration) ([]sweepRec, time.Duration) {
	var mu sync.Mutex
	var recs []sweepRec
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				rec := doSweep(client, base, i, sched.at(i))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// verify compares every sweep's CSV with campaign.Emit of the report
// a campaign.Runner produces for the same spec, and returns the digest
// of the schedule's first digestSweeps expected CSVs, the expected
// reports by sweep index, and the number of failed sweeps. The runners
// share one store of their own, so each cell is simulated once here
// too.
func verify(recs []sweepRec, sched *schedule, jobs int) (string, map[int]*campaign.Report, int64, error) {
	store := campaign.NewStore()
	reps := map[int]*campaign.Report{}
	csv := map[int][]byte{}
	want := func(i int) ([]byte, error) {
		if b, ok := csv[i]; ok {
			return b, nil
		}
		r, err := campaign.NewRunnerWith(sched.at(i), store)
		if err != nil {
			return nil, err
		}
		rep := r.Run(jobs)
		var b bytes.Buffer
		if err := campaign.Emit(&b, rep, "csv"); err != nil {
			return nil, err
		}
		reps[i], csv[i] = rep, b.Bytes()
		return csv[i], nil
	}
	var failed int64
	for k := range recs {
		r := &recs[k]
		if r.err == nil {
			b, err := want(r.idx)
			if err != nil {
				return "", nil, 0, err
			}
			if !bytes.Equal(r.csv, b) {
				r.err = fmt.Errorf("sweep %d (refs %v): server CSV differs from campaign.Emit", r.idx, r.spec.Refs)
			}
		}
		if r.err != nil {
			fmt.Println(r.err)
			failed++
		}
	}
	h := sha256.New()
	for i := range digestSweeps {
		b, err := want(i)
		if err != nil {
			return "", nil, 0, err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), reps, failed, nil
}

// sweepPhase is one server lifetime under load.
type sweepPhase struct {
	recs    []sweepRec
	wall    time.Duration
	ok      []sweepRec // completed, verified sweeps
	refs    int64      // references the server simulated
	digest  string
	reps    map[int]*campaign.Report
	failed  int64
	maxConn int
	peakRSS float64
	store   *campaign.Store
	// cpu and g0, g1 cover the load alone: process CPU time and the Go
	// runtime counters before and after it.
	cpu    time.Duration
	g0, g1 goStats
}

func runPhase(o opts, d time.Duration) (*sweepPhase, error) {
	cc := &connCounter{}
	client := newClient(o.jobs, cc)
	srv, err := startServer(o.jobs, client)
	if err != nil {
		return nil, err
	}
	sched := newSchedule(o.seed)
	p := &sweepPhase{store: srv.store}
	cpu0, g0 := processCPU(), sampleGo()
	p.recs, p.wall = load(client, srv.base, sched, o.jobs, d)
	p.peakRSS = peakRSSMB()
	p.cpu, p.g0, p.g1 = processCPU()-cpu0, g0, sampleGo()
	p.maxConn = cc.peak()
	if err := srv.close(client); err != nil {
		return nil, err
	}
	if p.digest, p.reps, p.failed, err = verify(p.recs, sched, o.jobs); err != nil {
		return nil, err
	}
	for _, r := range p.recs {
		if r.err == nil {
			p.ok = append(p.ok, r)
			// The fresh value's cells, plus one baseline per workload.
			cells := r.spec.Size()/len(r.spec.Refs) + len(r.spec.Workloads)
			p.refs += int64(cells * freshOf(r.spec))
		}
	}
	if p.maxConn > o.jobs {
		return nil, fmt.Errorf("load generator opened %d connections at once, limit %d", p.maxConn, o.jobs)
	}
	return p, nil
}

func durations(recs []sweepRec, f func(sweepRec) time.Duration) []time.Duration {
	d := make([]time.Duration, len(recs))
	for i, r := range recs {
		d[i] = f(r)
	}
	return d
}

func runSweepd(o opts) (*runOut, error) {
	out := &runOut{}
	cc := &connCounter{}
	client := newClient(o.jobs, cc)
	for range 51 {
		t := time.Now()
		srv, err := startServer(o.jobs, client)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t))
		if err := srv.close(client); err != nil {
			return nil, err
		}
	}
	p, err := runPhase(o, o.seconds)
	if err != nil {
		return nil, err
	}
	out.ops = durations(p.ok, func(r sweepRec) time.Duration { return r.total })
	out.firstRow = durations(p.ok, func(r sweepRec) time.Duration { return r.firstRow })
	out.refs, out.wall, out.peakRSS = p.refs, p.wall, p.peakRSS
	out.attempted, out.failed = int64(len(p.recs)), p.failed
	out.digest = p.digest
	fmt.Printf("max client connections %d, clients %d\n", p.maxConn, o.jobs)
	return out, nil
}

// traceSweepd loads one server untraced (reference throughput, Go
// runtime costs) and one with the store and process CPU sampled, then
// replays the fresh cells of the second outside the service with every
// layer wrapped.
func traceSweepd(o opts) (*traceOut, error) {
	layer := map[string]float64{}
	half := o.seconds / 2
	pA, err := runPhase(o, half)
	if err != nil {
		return nil, err
	}
	goMetrics(layer, pA.g0, pA.g1, pA.refs)
	pB, err := runPhase(o, half)
	if err != nil {
		return nil, err
	}
	if pA.failed+pB.failed > 0 {
		return nil, fmt.Errorf("%d sweeps failed", pA.failed+pB.failed)
	}
	if pB.digest != pA.digest {
		return nil, fmt.Errorf("second phase digest %s differs from first %s", pB.digest, pA.digest)
	}
	rate := func(p *sweepPhase) float64 { return float64(len(p.ok)) / p.wall.Seconds() }
	overhead(layer, "sweeps_per_s", rate(pA), rate(pB))

	st := pB.store
	layer["campaign.result_hit_ratio"] = ratio(st.ResultHits(), st.ResultRuns())
	layer["campaign.baseline_hit_ratio"] = ratio(st.BaselineHits(), st.BaselineRuns())
	var fresh []campaign.Result
	var reports []*campaign.Report
	rejected := 0
	for _, r := range pB.recs {
		if r.rejected {
			rejected++
		}
	}
	for _, r := range pB.ok {
		rep := pB.reps[r.idx]
		reports = append(reports, rep)
		for _, res := range rep.Results {
			if res.Refs == freshOf(r.spec) {
				fresh = append(fresh, res)
			}
		}
	}
	layer["campaign.emit_ms"] = ms(emitTime(reports))
	layer["serve.post_ms_p50"] = ms(quantile(durations(pB.ok, func(r sweepRec) time.Duration { return r.post }), 0.5))
	layer["serve.first_row_wait_ms_p50"] = ms(quantile(durations(pB.ok, func(r sweepRec) time.Duration { return r.firstRow - r.post }), 0.5))
	layer["serve.report_get_ms_p50"] = ms(quantile(durations(pB.ok, func(r sweepRec) time.Duration { return r.total - r.drained }), 0.5))
	layer["serve.rejected"] = float64(rejected)

	lt, _, err := replayResults(fresh, o.jobs)
	if err != nil {
		return nil, err
	}
	if err := layerMetrics(layer, lt); err != nil {
		return nil, err
	}
	if _, err := probes(layer, o.seed); err != nil {
		return nil, err
	}

	// The service simulates the same cells the replay did, so what the
	// load costs beyond the replay's spans is the fabric (HTTP on both
	// ends, JSON, the store, the campaign's bookkeeping) and the GC work
	// the spans did not absorb as assists.
	n := float64(len(pB.ok))
	perSweep := func(d time.Duration) float64 { return ms(d) / n }
	l := ledger{unit: "ms", what: "process CPU per sweep under load (server, clients and runtime)", total: perSweep(pB.cpu)}
	l.add("cell set-up (replay)", perSweep(lt.setup))
	l.add("trace", perSweep(lt.source.busy()))
	l.add("edu", perSweep(lt.engine))
	l.add("auth", perSweep(lt.auth()))
	l.add("soc self (cache, dram, bus)", perSweep(lt.self()))
	layer["ledger.unexplained_share"] = l.share()
	return &traceOut{layer: layer, ledger: l, digest: pA.digest}, nil
}

// freshOf is the refs value a sweep simulates: the last on its axis.
func freshOf(spec campaign.Spec) int { return spec.Refs[len(spec.Refs)-1] }

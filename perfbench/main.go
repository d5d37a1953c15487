// Command perfbench is the repository's same-host benchmark. One run
// takes a workload and a seed, builds its inputs from the seed, measures
// for a fixed number of host seconds, checks the program's outputs, and
// prints every metric by name and unit; the last stdout line is one JSON
// object. With -trace 1 the run instead reports the per-layer metrics
// and the ledger that reconciles them with the measured total.
//
//	go run . -workload verified-l2 -seed 1 -seconds 20 -trace 0
//
// README.md lists the workloads, the metrics and what each one moves.
package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator, the campaign engine
// or the sweep service sees; every untraced run prints all of them.
var endToEnd = []metricDef{
	{"refs_per_s", "refs/s", "higher"},
	{"sweeps_per_s", "sweeps/s", "higher"},
	{"sweep_p50_ms", "ms", "lower"},
	{"sweep_p99_ms", "ms", "lower"},
	{"first_row_p50_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// surveyEngines are the registry keys of the eight survey engines, the
// suffixes of the per-engine edu metrics.
var surveyEngines = []string{"best", "vlsi", "gi", "ds5002", "ds5240", "gilmont", "xom", "aegis"}

// perLayer are the traced run's metrics; every traced run prints all of
// them, with 0 where the layer does no work on that workload.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"trace.next_ns_per_ref", "ns/ref", "lower"},
		{"edu.lines", "count", "lower"},
		{"edu.busy_share", "ratio", "lower"},
	}
	for _, e := range surveyEngines {
		m = append(m, metricDef{"edu.decrypt_ns_per_line." + e, "ns/line", "lower"},
			metricDef{"edu.encrypt_ns_per_line." + e, "ns/line", "lower"})
	}
	return append(m, []metricDef{
		{"crypto.aes_encrypt_ns_per_block", "ns/block", "lower"},
		{"crypto.aes_decrypt_ns_per_block", "ns/block", "lower"},
		{"crypto.des_ns_per_block", "ns/block", "lower"},
		{"crypto.des3_ns_per_block", "ns/block", "lower"},
		{"crypto.ghash_ns_per_line", "ns/line", "lower"},
		{"crypto.stdlib_aes_ns_per_block", "ns/block", "lower"},
		{"crypto.stdlib_des_ns_per_block", "ns/block", "lower"},
		{"auth.verify_calls", "count", "lower"},
		{"auth.update_calls", "count", "lower"},
		{"auth.verify_ns_per_call", "ns/call", "lower"},
		{"auth.update_ns_per_call", "ns/call", "lower"},
		{"auth.busy_share", "ratio", "lower"},
		{"soc.self_ns_per_ref", "ns/ref", "lower"},
		{"cache.access_ns_per_ref", "ns/ref", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"cache.l2_hit_ratio", "ratio", "higher"},
		{"dram.read_ns_per_line", "ns/line", "lower"},
		{"dram.write_ns_per_line", "ns/line", "lower"},
		{"dram.cold_read_ns_per_line", "ns/line", "lower"},
		{"campaign.task_ms_p50", "ms", "lower"},
		{"campaign.task_ms_max", "ms", "lower"},
		{"campaign.pool_busy_frac", "ratio", "higher"},
		{"campaign.result_hit_ratio", "ratio", "higher"},
		{"campaign.baseline_hit_ratio", "ratio", "higher"},
		{"campaign.emit_ms", "ms", "lower"},
		{"serve.post_ms_p50", "ms", "lower"},
		{"serve.first_row_wait_ms_p50", "ms", "lower"},
		{"serve.report_get_ms_p50", "ms", "lower"},
		{"serve.rejected", "count", "lower"},
		{"go.gc_cpu_frac", "ratio", "lower"},
		{"go.alloc_bytes_per_ref", "B/ref", "lower"},
		{"ledger.unexplained_share", "ratio", "lower"},
		{"tracing.overhead_share", "ratio", "lower"},
	}...)
}()

// opts are one run's settings. jobs bounds every pool, client set and
// connection set the run creates.
type opts struct {
	seed    int64
	seconds time.Duration
	jobs    int
}

// benchJobs is the run's parallelism: two workers, never more than the
// host has CPUs.
func benchJobs() int { return min(2, runtime.NumCPU()) }

// runOut is what an untraced run measured.
type runOut struct {
	setup    []time.Duration // one per repeated set-up
	ops      []time.Duration // one per completed operation (grid, pass, sweep)
	firstRow []time.Duration // time to an operation's first result
	refs     int64           // simulated references in the timed phase
	wall     time.Duration   // timed phase
	// peakRSS is VmHWM in MiB at the end of the timed phase, before the
	// output checks allocate.
	peakRSS   float64
	attempted int64
	failed    int64
	digest    string
}

// traceOut is what a traced run measured.
type traceOut struct {
	layer  map[string]float64
	ledger ledger
	digest string
}

type workload struct {
	why    string
	run    func(opts) (*runOut, error)
	traced func(opts) (*traceOut, error)
}

var workloads = map[string]workload{
	"grid-cipher":  {"the cipher kernels do almost all the work; cold store, write-only", runGrid, traceGrid},
	"verified-l2":  {"long warm ctree-verified run, plaintext engine: no cipher work", runVerified, traceVerified},
	"sweepd-mixed": {"short cold service sweeps, each half store hits and half misses", runSweepd, traceSweepd},
}

//go:embed digests.json
var pinnedJSON []byte

// pinnedSeed is the seed whose output digests are pinned in digests.json.
const pinnedSeed = 1

func main() {
	name := flag.String("workload", "", "grid-cipher, verified-l2 or sweepd-mixed")
	seed := flag.Int64("seed", pinnedSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measured host seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (grid-cipher, verified-l2, sweepd-mixed), -seconds > 0 and -trace 0|1\n")
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, jobs: benchJobs()}
	fmt.Printf("workload %s (%s), seed %d, %d s, jobs %d\n", *name, w.why, o.seed, *seconds, o.jobs)

	var res result
	var digest string
	if *traced == 1 {
		t, err := w.traced(o)
		if err != nil {
			fail(err)
		}
		t.ledger.print()
		res = result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{Value: t.layer[d.name], Unit: d.unit}
		}
		digest = t.digest
	} else {
		r, err := w.run(o)
		if err != nil {
			fail(err)
		}
		res = r.result()
		digest = r.digest
	}
	fmt.Printf("stats_digest %s\n", digest)
	if want := pinnedDigest(*name, o.seed); want != "" && want != digest {
		fmt.Printf("stats_digest MISMATCH: pinned %s for seed %d\n", want, pinnedSeed)
		res.Correct = false
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func pinnedDigest(name string, seed int64) string {
	if seed != pinnedSeed {
		return ""
	}
	var pinned map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fail(fmt.Errorf("digests.json: %w", err))
	}
	return pinned[name]
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *runOut) result() result {
	tail, label := tailQuantile(r.ops)
	v := map[string]float64{
		"refs_per_s":       float64(r.refs) / r.wall.Seconds(),
		"sweeps_per_s":     float64(len(r.ops)) / r.wall.Seconds(),
		"sweep_p50_ms":     ms(quantile(r.ops, 0.5)),
		"sweep_p99_ms":     ms(tail),
		"first_row_p50_ms": ms(quantile(r.firstRow, 0.5)),
		"setup_s":          quantile(r.setup, 0.5).Seconds(),
		"peak_rss_mb":      r.peakRSS,
	}
	fmt.Printf("operations %d in %.3f s; sweep_p99_ms reports %s of %d samples; setup median of %d\n",
		len(r.ops), r.wall.Seconds(), label, len(r.ops), len(r.setup))
	fmt.Printf("failed_frac %g (%d of %d attempted)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: v[d.name], Unit: d.unit}
		fmt.Printf("  %-18s %14.4f %s\n", d.name, v[d.name], d.unit)
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of d (0 for no samples).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailQuantile is the highest of p99, p95, p90, p75 and p50 with at
// least ten samples beyond it; with fewer than 20 samples none
// qualifies and the maximum is reported instead.
func tailQuantile(d []time.Duration) (time.Duration, string) {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if float64(len(d))*(100-p)/100 >= 10 {
			return quantile(d, p/100), "p" + strconv.FormatFloat(p, 'g', -1, 64)
		}
	}
	return quantile(d, 1), "max"
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB() float64 {
	f, err := os.ReadFile("/proc/self/status")
	if err != nil {
		fail(fmt.Errorf("reading peak RSS: %w", err))
	}
	sc := bufio.NewScanner(bytes.NewReader(f))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				fail(fmt.Errorf("parsing VmHWM %q: %w", rest, err))
			}
			return kb / 1024
		}
	}
	fail(fmt.Errorf("no VmHWM in /proc/self/status"))
	return 0
}

// forEach runs fn(worker, i) for i in [0, n) on `workers` goroutines
// and returns when all calls have.
func forEach(workers, n int, fn func(w, i int)) {
	var next atomic.Int64
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}

// goStats samples the Go runtime's cumulative CPU and allocation
// counters; the difference of two samples covers the phase between.
type goStats struct{ gcCPU, totalCPU, allocBytes float64 }

func sampleGo() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindUint64 {
			return float64(v.Uint64())
		}
		return v.Float64()
	}
	return goStats{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// goMetrics fills the go.* metrics for the phase between a and b, in
// which refs references were simulated.
func goMetrics(layer map[string]float64, a, b goStats, refs int64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		layer["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	if refs > 0 {
		layer["go.alloc_bytes_per_ref"] = (b.allocBytes - a.allocBytes) / float64(refs)
	}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail(fmt.Errorf("getrusage: %w", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ledger reconciles the layers' busy time with a measured total.
type ledger struct {
	unit  string
	total float64
	what  string // what the total measures
	rows  []ledgerRow
}

type ledgerRow struct {
	layer string
	value float64
}

func (l *ledger) add(layer string, v float64) { l.rows = append(l.rows, ledgerRow{layer, v}) }

func (l *ledger) unexplained() float64 {
	u := l.total
	for _, r := range l.rows {
		u -= r.value
	}
	return u
}

func (l *ledger) share() float64 {
	if l.total == 0 {
		return 0
	}
	return l.unexplained() / l.total
}

func (l *ledger) print() {
	fmt.Printf("ledger: %s = %.4f %s\n", l.what, l.total, l.unit)
	for _, r := range l.rows {
		fmt.Printf("  %-28s %12.4f %s  %6.1f%%\n", r.layer, r.value, l.unit, 100*r.value/l.total)
	}
	fmt.Printf("  %-28s %12.4f %s  %6.1f%%\n", "unexplained", l.unexplained(), l.unit, 100*l.share())
}

// overhead is the traced phase's throughput loss against the untraced
// phase of the same run.
func overhead(layer map[string]float64, what string, untraced, traced float64) {
	layer["tracing.overhead_share"] = 1 - traced/untraced
	fmt.Printf("tracing overhead: %s untraced %.4f, traced %.4f (%.1f%%)\n",
		what, untraced, traced, 100*(1-traced/untraced))
}

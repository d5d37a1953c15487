// Command sweepd is the resident sweep service: the cmd/sweep campaign
// engine promoted to a long-lived HTTP fabric. POST a grid spec (the
// same JSON `sweep -spec` reads) to /sweeps and it is validated,
// expanded, and enqueued on a bounded admission queue (429 on
// overflow) feeding one shared worker pool; stream incremental NDJSON
// rows from /sweeps/{id}/results as points complete, fetch the final
// report — byte-identical to the sweep CLI on the same spec — from
// /sweeps/{id}/result, and DELETE to cancel. All sweeps share one
// process-lifetime baseline/result store, so concurrent users with
// overlapping grids reuse each other's work; -store persists it across
// restarts.
//
//	sweepd -addr localhost:8344
//	curl -X POST -d '{"engines":["aegis"],"workloads":["sequential"],"refs":[20000]}' localhost:8344/sweeps
//	curl -N localhost:8344/sweeps/s1-91c2e0f7/results         # live NDJSON rows
//	curl 'localhost:8344/sweeps/s1-91c2e0f7/result?format=csv'
//	curl -X DELETE localhost:8344/sweeps/s1-91c2e0f7          # cancel
//	curl localhost:8344/metrics                               # fabric + store counters
//
// Grid axis flags (the sweep CLI's vocabulary) define an optional
// warm-up sweep executed before the server starts serving: a fleet
// bring-up can pre-compute the baselines its users' grids will share.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
)

// Connection deadlines: a client has readHeaderTimeout to send its
// request headers (a slow-header client cannot pin a connection), and
// an idle keep-alive connection closes after idleTimeout. There is no
// write deadline: an NDJSON results stream lasts as long as its sweep.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the HTTP server sweepd serves h with.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", "localhost:8344", "listen address")
	workers := flag.Int("workers", campaign.DefaultJobs(), "shared simulation worker pool size")
	queueDepth := flag.Int("queue", 16, "admission queue depth (sweeps waiting to execute; overflow answers 429)")
	maxActive := flag.Int("max-active", 2, "sweeps feeding the worker pool concurrently")
	maxTasks := flag.Int("max-tasks", 65536, "largest grid expansion accepted (413 beyond)")
	storePath := flag.String("store", "", "shared-store checkpoint file: loaded at boot, rewritten after every sweep and at shutdown")
	traceCap := flag.String("trace-cap", "", "arm per-sweep flight recording with this per-task ring capacity in events, K/M suffixes ok (debugging; default off)")
	warmJobs := flag.Int("warm-jobs", 0, "worker count for the warm-up sweep (default: -workers)")
	specFlags := campaign.RegisterSpecFlags(flag.CommandLine)
	flag.Parse()

	ringCap := 0
	if *traceCap != "" {
		caps, err := campaign.ParseIntList(*traceCap)
		if err != nil || len(caps) != 1 || caps[0] <= 0 {
			fatal(fmt.Errorf("-trace-cap wants one positive event count, got %q", *traceCap))
		}
		ringCap = caps[0]
	}

	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		MaxActive:    *maxActive,
		MaxTasks:     *maxTasks,
		TraceCap:     ringCap,
		SnapshotPath: *storePath,
	})
	if err := srv.Start(); err != nil {
		fatal(err)
	}

	// The optional warm-up sweep primes the shared store before traffic
	// arrives: every grid its users later POST that overlaps these axes
	// is served from memo.
	if !specFlags.Empty() {
		spec, err := specFlags.Spec()
		if err != nil {
			fatal(err)
		}
		runner, err := campaign.NewRunnerWith(spec, srv.Store())
		if err != nil {
			fatal(err)
		}
		jobs := *warmJobs
		if jobs <= 0 {
			jobs = *workers
		}
		start := time.Now()
		rep := runner.Run(jobs)
		fmt.Fprintf(os.Stderr, "sweepd: warm-up %d points, baselines simulated=%d, %s\n",
			len(rep.Results), runner.BaselineRuns(), time.Since(start).Round(time.Millisecond))
	}

	// Bind before announcing so scripts (and the e2e tests) can watch
	// stderr for the live address — including a kernel-assigned :0 port.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	fmt.Fprintf(os.Stderr, "sweepd: serving on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "sweepd: %v: draining\n", got)
	}
	// Close the fabric first: admission flips to 503, live sweeps cancel
	// and finalize (so streaming subscribers reach end-of-stream), the
	// checkpoint is written — then the HTTP side drains cleanly.
	closeErr := srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	if closeErr != nil {
		fatal(closeErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepd:", err)
	os.Exit(1)
}

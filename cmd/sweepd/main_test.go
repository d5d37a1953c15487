package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The e2e contract: a campaign POSTed to the sweepd binary produces the
// same bytes the sweep binary emits for the same spec file. Both real
// binaries are built once here.
var (
	sweepdBin string
	sweepBin  string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sweepd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	sweepdBin = filepath.Join(dir, "sweepd")
	sweepBin = filepath.Join(dir, "sweep")
	for bin, pkg := range map[string]string{sweepdBin: ".", sweepBin: "../sweep"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// startDaemon launches sweepd on an ephemeral port and returns its base
// URL once the binary announces it. The daemon is killed with the test.
func startDaemon(t *testing.T, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(sweepdBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "sweepd: serving on "); ok {
			base = rest
			break
		}
	}
	if base == "" {
		t.Fatalf("no serving address on stderr (scan err %v)", sc.Err())
	}
	go func() { // drain so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()
	return cmd, base
}

func postSpec(t *testing.T, base, specJSON string) string {
	t.Helper()
	resp, err := http.Post(base+"/sweeps", "application/json", strings.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps = %d: %s", resp.StatusCode, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		t.Fatalf("no sweep id in %s (err %v)", body, err)
	}
	return st.ID
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

const e2eSpec = `{"engines":["aegis","xom","gi"],"workloads":["sequential"],"refs":[2000]}`

func TestServerReportMatchesCLIByteForByte(t *testing.T) {
	_, base := startDaemon(t)

	// Server side: POST, drain the live NDJSON stream, fetch the report.
	id := postSpec(t, base, e2eSpec)
	stream := get(t, base+"/sweeps/"+id+"/results")
	rows := strings.Split(strings.TrimSuffix(stream, "\n"), "\n")
	if len(rows) != 3 {
		t.Fatalf("streamed %d rows, want 3:\n%s", len(rows), stream)
	}
	for _, row := range rows {
		var res struct {
			Engine string `json:"engine"`
			Err    string `json:"err"`
		}
		if err := json.Unmarshal([]byte(row), &res); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", row, err)
		}
		if res.Err != "" {
			t.Fatalf("row failed: %s", res.Err)
		}
	}

	// CLI side: the same spec via `sweep -spec`, same formats.
	specPath := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(specPath, []byte(e2eSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"table", "csv", "json"} {
		var stdout, stderrBuf bytes.Buffer
		cli := exec.Command(sweepBin, "-spec", specPath, "-format", format, "-q")
		cli.Stdout, cli.Stderr = &stdout, &stderrBuf
		if err := cli.Run(); err != nil {
			t.Fatalf("sweep -spec: %v\n%s", err, stderrBuf.String())
		}
		server := get(t, base+"/sweeps/"+id+"/result?format="+format)
		if server != stdout.String() {
			t.Errorf("format %s: server and CLI reports differ\nserver:\n%s\nCLI:\n%s",
				format, server, stdout.String())
		}
	}
}

func TestOverlappingSweepsShareWork(t *testing.T) {
	_, base := startDaemon(t, "-workers", "2", "-max-active", "2")

	// Two POSTs of one grid: the second must be served from the shared
	// store, not resimulated.
	id1 := postSpec(t, base, e2eSpec)
	id2 := postSpec(t, base, e2eSpec)
	var reports [2]string
	for i, id := range []string{id1, id2} {
		get(t, base+"/sweeps/"+id+"/results") // blocks until done
		reports[i] = get(t, base+"/sweeps/"+id+"/result?format=csv")
	}
	if reports[0] != reports[1] {
		t.Error("overlapping sweeps returned different reports")
	}

	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/metrics")), &snap); err != nil {
		t.Fatal(err)
	}
	if hits := snap.Gauges["serve.store_result_hits"]; hits == 0 {
		t.Errorf("no shared-memo hits across overlapping sweeps: %v", snap.Gauges)
	}
	if runs := snap.Gauges["serve.store_result_runs"]; runs != 3 {
		t.Errorf("store simulated %d points for two identical 3-point sweeps, want 3", runs)
	}
}

func TestGracefulShutdownWritesCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "store.json")
	cmd, base := startDaemon(t, "-store", ckpt)

	id := postSpec(t, base, `{"engines":["xom"],"workloads":["sequential"],"refs":[1000]}`)
	get(t, base+"/sweeps/"+id+"/results")

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v", err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}
	var snap struct {
		Version int                        `json:"version"`
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("checkpoint is not JSON: %v", err)
	}
	if snap.Version != 1 || len(snap.Results) != 1 {
		t.Errorf("checkpoint version=%d results=%d, want 1 and 1", snap.Version, len(snap.Results))
	}

	// A restarted daemon warm-starts from the checkpoint: the same grid
	// is pure memo hits, zero new simulations.
	_, base2 := startDaemon(t, "-store", ckpt)
	id2 := postSpec(t, base2, `{"engines":["xom"],"workloads":["sequential"],"refs":[1000]}`)
	get(t, base2+"/sweeps/"+id2+"/results")
	var snap2 struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal([]byte(get(t, base2+"/metrics")), &snap2); err != nil {
		t.Fatal(err)
	}
	if runs := snap2.Gauges["serve.store_result_runs"]; runs != 0 {
		t.Errorf("restarted daemon resimulated %d points, want 0", runs)
	}
}

func TestWarmupAxesPrimeTheStore(t *testing.T) {
	// Grid axis flags run a warm-up sweep before serving: the first POST
	// of an overlapping grid is served from memo.
	_, base := startDaemon(t, "-engines", "aegis", "-workloads", "sequential", "-refs", "1500")
	id := postSpec(t, base, `{"engines":["aegis"],"workloads":["sequential"],"refs":[1500]}`)
	get(t, base+"/sweeps/"+id+"/results")
	var st struct {
		MemoHits uint64 `json:"memo_hits"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/sweeps/"+id)), &st); err != nil {
		t.Fatal(err)
	}
	if st.MemoHits != 1 {
		t.Errorf("warmed POST memo hits = %d, want 1", st.MemoHits)
	}
}

func TestBadFlagAndBadSpecExitNonzero(t *testing.T) {
	out, err := exec.Command(sweepdBin, "-no-such-flag").CombinedOutput()
	if err == nil {
		t.Errorf("bad flag exited 0: %s", out)
	}
	out, err = exec.Command(sweepdBin, "-addr", "127.0.0.1:0", "-trace-cap", "nope").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-trace-cap") {
		t.Errorf("bad -trace-cap: err=%v out=%s", err, out)
	}
	// A warm-up axis typo fails startup, not the first request.
	out, err = exec.Command(sweepdBin, "-addr", "127.0.0.1:0", "-engines", "warp-drive").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "warp-drive") {
		t.Errorf("bad warm-up engine: err=%v out=%s", err, out)
	}
}

func TestCancelEndpoint(t *testing.T) {
	_, base := startDaemon(t, "-workers", "1")
	// All engines × two workloads, long enough that DELETE lands mid-run.
	id := postSpec(t, base, `{"workloads":["sequential","firmware"],"refs":[50000]}`)

	resp, err := http.Get(base + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream ended before first row")
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/sweeps/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", dresp.StatusCode)
	}
	// The stream terminates promptly rather than hanging on dead work.
	drained := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not terminate after DELETE")
	}
	var st struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(get(t, base+"/sweeps/"+id)), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Errorf("state after DELETE = %q, want canceled", st.State)
	}
	if body := get(t, base+"/sweeps/"+id+"/result?format=csv"); !strings.Contains(body, "canceled") {
		t.Error("partial report carries no canceled placeholders")
	}
}

// The server sweepd listens with bounds how long a client may take to
// send headers and how long an idle connection lives, but sets no
// write deadline, which would cut long NDJSON result streams.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (result streams outlive any write deadline)", srv.WriteTimeout)
	}
}

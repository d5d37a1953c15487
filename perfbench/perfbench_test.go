package main

import (
	stdaes "crypto/aes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crypto/aes"
	"repro/internal/sim/soc"
)

// TestWrappersLeaveReportsIdentical runs every survey engine with and
// without the timing wrappers, under no authenticator and under ctree,
// and requires byte-identical reports.
func TestWrappersLeaveReportsIdentical(t *testing.T) {
	for _, engine := range surveyEngines {
		for _, auth := range []string{"none", "ctree"} {
			cfg := campaign.TaskConfig{Engine: engine, Auth: auth, Workload: "sequential", Refs: 3000,
				CacheSize: 16 << 10, LineSize: 32, BusWidth: 4}
			run := func(wrap bool) []byte {
				sc, err := cellSoC(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := core.MustEntry(engine).Build()
				if err != nil {
					t.Fatal(err)
				}
				ver, err := core.BuildAuthenticator(auth, 32)
				if err != nil {
					t.Fatal(err)
				}
				src, err := cellSource(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sc.Engine, sc.Verifier = eng, ver
				if wrap {
					te, err := wrapEngine(eng)
					if err != nil {
						t.Fatal(err)
					}
					sc.Engine = te
					if ver != nil {
						sc.Verifier = &timedVerifier{Verifier: ver}
					}
					src = &timedSource{RefSource: src}
				}
				s, err := soc.New(sc)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(s.Run(src))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			if plain, wrapped := run(false), run(true); string(plain) != string(wrapped) {
				t.Errorf("%s+%s: wrapped report differs\nplain   %s\nwrapped %s", engine, auth, plain, wrapped)
			}
		}
	}
}

// TestReplayReproducesCampaignCycles assembles every cell of a small
// grid outside the campaign and requires the runner's exact cycle
// counts, and that a wrong count is caught.
func TestReplayReproducesCampaignCycles(t *testing.T) {
	spec := campaign.Spec{Auths: []string{"none", "ctree"}, Workloads: []string{"sequential", "firmware"}, Refs: []int{2500}}
	rep, err := campaign.Sweep(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	lt, _, err := replayResults(rep.Results, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(rep.Results) + 2; lt.runs != want {
		t.Errorf("replayed %d runs, want %d cells and baselines", lt.runs, want)
	}
	if lt.engineLines != lt.lines {
		t.Errorf("engine wrapper counted %d lines, reports %d", lt.engineLines, lt.lines)
	}
	bad := slices.Clone(rep.Results)
	bad[3].Cycles++
	if _, _, err := replayResults(bad, 2); err == nil || !strings.Contains(err.Error(), "campaign reported") {
		t.Errorf("a wrong cycle count went unnoticed: %v", err)
	}
}

// TestSeedsDriveInputs checks every workload's inputs and digests are
// functions of the seed: equal for one seed, different for another.
func TestSeedsDriveInputs(t *testing.T) {
	if a, b := gridSpec(1), gridSpec(2); a.Refs[0] == b.Refs[0] {
		t.Errorf("seeds 1 and 2 give the same grid refs %d", a.Refs[0])
	}
	small := func(seed int64) string {
		spec := gridSpec(seed)
		spec.Engines, spec.Refs = []string{"best", "xom"}, []int{spec.Refs[0] - gridRefs + 1000}
		rep, err := campaign.Sweep(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		d, err := reportDigest(rep)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if small(7) != small(7) || small(7) == small(8) {
		t.Error("grid digest is not a function of the seed")
	}

	verified := func(seed int64) string {
		v, err := newVerified(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := passDigest(v.warm, v.soc.Run(v.src))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if verified(3) != verified(3) || verified(3) == verified(4) {
		t.Error("verified-l2 digest is not a function of the seed")
	}

	seq := func(seed int64) []int {
		s := newSchedule(seed)
		var out []int
		for i := range 64 {
			out = append(out, s.at(i).Refs...)
		}
		return out
	}
	if !slices.Equal(seq(5), seq(5)) || slices.Equal(seq(5), seq(6)) {
		t.Error("sweep schedule is not a function of the seed")
	}
	// Every sweep simulates a refs value no earlier sweep of its engine
	// did and, from the third on, repeats one that an earlier sweep of
	// its engine simulated.
	s := newSchedule(5)
	seen := map[string]bool{}
	for i := range 2*freshBand + 100 {
		spec := s.at(i)
		key := func(refs int) string { return fmt.Sprint(spec.Engines, refs) }
		refs := spec.Refs
		if seen[key(freshOf(spec))] || (i >= 2 && (len(refs) != 2 || !seen[key(refs[0])])) {
			t.Fatalf("sweep %d: %v at refs %v", i, spec.Engines, refs)
		}
		seen[key(freshOf(spec))] = true
	}
}

// TestLoadGeneratorBounds drives a short closed loop and requires it to
// stay within nproc clients and connections, with every CSV verified.
func TestLoadGeneratorBounds(t *testing.T) {
	o := opts{seed: 1, jobs: benchJobs()}
	if o.jobs > runtime.NumCPU() {
		t.Fatalf("%d clients on %d CPUs", o.jobs, runtime.NumCPU())
	}
	p, err := runPhase(o, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if p.maxConn > runtime.NumCPU() || p.maxConn < 1 {
		t.Errorf("load generator held %d connections at once on %d CPUs", p.maxConn, runtime.NumCPU())
	}
	if p.failed != 0 || len(p.ok) == 0 {
		t.Errorf("%d sweeps failed, %d succeeded", p.failed, len(p.ok))
	}
}

type wrongAES struct{ *aes.Cipher }

func (w wrongAES) Encrypt(dst, src []byte) { w.Cipher.Encrypt(dst, src); dst[0] ^= 1 }

// TestCryptoOracle requires the in-repo kernels to match the standard
// library, and the oracle to notice a kernel that does not.
func TestCryptoOracle(t *testing.T) {
	layer := map[string]float64{}
	if err := cryptoProbes(layer); err != nil {
		t.Fatal(err)
	}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "crypto.") && layer[d.name] <= 0 {
			t.Errorf("%s = %v", d.name, layer[d.name])
		}
	}
	ours, err := aes.New(aesKey)
	if err != nil {
		t.Fatal(err)
	}
	std, err := stdaes.NewCipher(aesKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle("aes", wrongAES{ours}, std, 16, 4); err == nil {
		t.Error("oracle accepted a wrong AES")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric and
// workload tables of this program in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var j struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &j); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i, w := range want {
			if got[i] != (def{w.name, w.unit, w.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", what, i, got[i], w)
			}
		}
	}
	same("end_to_end", j.EndToEnd, endToEnd)
	same("per_layer", j.PerLayer, perLayer)
	var names []string
	for _, w := range j.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !slices.Equal(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, want)
	}
}

func TestTailQuantile(t *testing.T) {
	d := make([]time.Duration, 1000)
	for i := range d {
		d[i] = time.Duration(i + 1)
	}
	if v, label := tailQuantile(d); label != "p99" || v != 990 {
		t.Errorf("1000 samples: %s = %d, want p99 = 990", label, v)
	}
	if v, label := tailQuantile(d[:100]); label != "p90" || v != 90 {
		t.Errorf("100 samples: %s = %d, want p90 = 90", label, v)
	}
	if v, label := tailQuantile(d[:3]); label != "max" || v != 3 {
		t.Errorf("3 samples: %s = %d, want max = 3", label, v)
	}
}

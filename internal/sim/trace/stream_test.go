package trace

import "testing"

// Every registered source must label its stream with its registry key:
// reports and the campaign store name workloads by that key.
func TestSourcesKeyedByLabel(t *testing.T) {
	for name, mk := range Sources {
		if got := mk(Config{Refs: 1, Seed: 1}).Label(); got != name {
			t.Errorf("Sources[%q] labels its stream %q", name, got)
		}
	}
}

func streamCfg() Config {
	return Config{
		Refs: 7000, Seed: 23,
		LoadFraction: 0.4, WriteFraction: 0.3, JumpRate: 0.05, Locality: 0.6,
	}
}

// A source consumed ref-by-ref must equal the trace Drain builds from
// the same config — streamed and drained, it is the same workload.
func TestStreamMatchesGenerator(t *testing.T) {
	for name, mkSource := range Sources {
		tr := Drain(mkSource(streamCfg()))
		src := mkSource(streamCfg())
		if src.Label() != tr.Name {
			t.Errorf("%s: label %q != trace name %q", name, src.Label(), tr.Name)
		}
		for i := range tr.Refs {
			r, ok := src.Next()
			if !ok {
				t.Fatalf("%s: source dried up at ref %d of %d", name, i, len(tr.Refs))
			}
			if r != tr.Refs[i] {
				t.Fatalf("%s: ref %d differs: stream %+v trace %+v", name, i, r, tr.Refs[i])
			}
		}
		if _, ok := src.Next(); ok {
			t.Errorf("%s: source longer than its trace", name)
		}
	}
}

// Reset must replay the exact stream.
func TestStreamResetReplays(t *testing.T) {
	for name, mkSource := range Sources {
		src := mkSource(streamCfg())
		first := Drain(src)
		src.Reset()
		second := Drain(src)
		if len(first.Refs) != len(second.Refs) {
			t.Fatalf("%s: replay length %d != %d", name, len(second.Refs), len(first.Refs))
		}
		for i := range first.Refs {
			if first.Refs[i] != second.Refs[i] {
				t.Fatalf("%s: replay diverged at ref %d", name, i)
			}
		}
	}
}

// A pristine source tolerates Reset (soc.Run rewinds unconditionally).
func TestPristineResetIsNoop(t *testing.T) {
	src := SequentialSource(Config{Refs: 100, Seed: 5})
	src.Reset() // must not panic
	if tr := Drain(src); len(tr.Refs) != 100 {
		t.Errorf("got %d refs after pristine reset", len(tr.Refs))
	}
}

// The multi-process stream must match its drained form quantum for
// quantum, and replay to the same length.
func TestMultiProcessSourceMatchesTrace(t *testing.T) {
	cfg := MultiProcessConfig{
		Config:  Config{Refs: 6000, Seed: 31, LoadFraction: 0.3, WriteFraction: 0.3},
		Procs:   3,
		Quantum: 250,
	}
	tr := Drain(MultiProcessSource(cfg))
	src := MultiProcessSource(cfg)
	for i := range tr.Refs {
		r, ok := src.Next()
		if !ok {
			t.Fatalf("stream dried up at ref %d", i)
		}
		if r != tr.Refs[i] {
			t.Fatalf("ref %d differs: stream %+v trace %+v", i, r, tr.Refs[i])
		}
	}
	src.Reset()
	if replay := Drain(src); len(replay.Refs) != len(tr.Refs) {
		t.Fatalf("replay length %d != %d", len(replay.Refs), len(tr.Refs))
	}
}

// A *Trace is itself a RefSource: Next walks the slice, Reset rewinds.
func TestTraceIsARefSource(t *testing.T) {
	tr := Drain(SequentialSource(Config{Refs: 50, Seed: 2}))
	var src RefSource = tr
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 50 {
		t.Fatalf("trace source yielded %d refs, want 50", n)
	}
	src.Reset()
	if r, ok := src.Next(); !ok || r != tr.Refs[0] {
		t.Error("reset trace source did not replay from the first ref")
	}
}

package core

import (
	"testing"

	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

// Streaming is not allowed to change a single measured number: for
// every registered engine, driving soc.Compare with a streaming
// RefSource must produce reports identical to driving it with the
// *trace.Trace drained from the same trace.Config.
func TestStreamingReportsMatchMaterializedForAllEngines(t *testing.T) {
	tcfg := trace.Config{
		Refs: 6000, Seed: 41,
		LoadFraction: 0.35, WriteFraction: 0.3, JumpRate: 0.03, Locality: 0.7,
	}
	for _, entry := range Survey() {
		t.Run(entry.Key, func(t *testing.T) {
			engM, err := entry.Build()
			if err != nil {
				t.Fatal(err)
			}
			baseM, withM, err := soc.Compare(soc.DefaultConfig(), engM, trace.Drain(trace.SequentialSource(tcfg)))
			if err != nil {
				t.Fatal(err)
			}

			engS, err := entry.Build() // fresh state: engines are stateful
			if err != nil {
				t.Fatal(err)
			}
			baseS, withS, err := soc.Compare(soc.DefaultConfig(), engS, trace.SequentialSource(tcfg))
			if err != nil {
				t.Fatal(err)
			}

			if baseM != baseS {
				t.Errorf("baseline reports differ:\n materialized %+v\n streaming    %+v", baseM, baseS)
			}
			if withM != withS {
				t.Errorf("engine reports differ:\n materialized %+v\n streaming    %+v", withM, withS)
			}
		})
	}
}

// The standard workload set must measure identically streamed and
// drained.
func TestWorkloadSourcesMatchWorkloads(t *testing.T) {
	const refs = 4000
	srcs := WorkloadSources(refs)
	for i, src := range WorkloadSources(refs) {
		mat := trace.Drain(src)
		if srcs[i].Label() != mat.Name {
			t.Errorf("workload %d: label %q != name %q", i, srcs[i].Label(), mat.Name)
		}
		sM, err := soc.New(soc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		repM := sM.Run(mat)
		sS, _ := soc.New(soc.DefaultConfig())
		repS := sS.Run(srcs[i])
		if repM != repS {
			t.Errorf("workload %s: reports differ:\n materialized %+v\n streaming    %+v",
				mat.Name, repM, repS)
		}
	}
}

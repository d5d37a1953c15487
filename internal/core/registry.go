package core

import (
	"fmt"
	"strings"
)

// Experiment is one entry of the DESIGN.md experiment index: a stable
// ID and a runner. Experiments whose cost is not trace-driven (E4, E9,
// E13–E15) ignore the refs argument.
type Experiment struct {
	// ID is the index identifier, "E1".."E22".
	ID string
	// Title is the one-line description used by listings.
	Title string
	// Run regenerates the experiment's table at the given trace length.
	Run func(refs int) (*Table, error)
}

// Experiments returns the full experiment index in suite order. This is
// the single registry the campaign scheduler (`sweep -suite`) and the
// root benchmarks drive, so an experiment added here appears
// everywhere.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "survey comparison table (all engines, mixed workload)", E1SurveyTable},
		{"E2", "stream vs block cipher on the miss path", E2StreamVsBlock},
		{"E3", "sub-block write penalty (RMW sequence)", E3WritePenalty},
		{"E4", "ECB determinism leak vs chained/addressed modes", func(int) (*Table, error) { return E4ECBLeakage() }},
		{"E5", "CBC chaining vs random access (jump-rate sweep)", E5CBCRandomAccess},
		{"E6", "AEGIS engine: overhead, area, IV scheme", E6Aegis},
		{"E7", "XOM pipelined AES: latency and throughput", E7XomPipeline},
		{"E8", "Gilmont fetch prediction + pipelined 3-DES", E8Gilmont},
		{"E9", "Kuhn cipher instruction search on DS5002FP", func(int) (*Table, error) { return E9Kuhn() }},
		{"E10", "CodePack-style compression density and performance", E10CodePack},
		{"E11", "EDU between CPU and cache (Fig. 7b) vs Fig. 7a", E11CacheSide},
		{"E12", "compression composed with encryption (Fig. 8)", E12CompressThenEncrypt},
		{"E13", "brute-force keyspace lifetime under Moore's law", func(int) (*Table, error) { return E13BruteForce() }},
		{"E14", "Figure 1 session-key exchange", func(int) (*Table, error) { return E14KeyExchange() }},
		{"E15", "Best's substitution/transposition cipher", func(int) (*Table, error) { return E15Best() }},
		{"E16", "VLSI secure-DMA page transfers (Fig. 4)", E16VlsiDma},
		{"E17", "integrity against instruction modification (extension)", E17Integrity},
		{"E18", "design-space ablations around AEGIS (extension)", E18Ablations},
		{"E19", "per-process bus keys under multitasking (extension)", E19KeyManagement},
		{"E20", "authentication trees vs flat MAC design space (extension)", E20AuthTrees},
		{"E21", "active-adversary attack-rate sweep (extension)", E21AttackSweep},
		{"E22", "EDU placement across a two-level hierarchy (extension)", E22Hierarchy},
	}
}

// ExperimentByID resolves an index entry case-insensitively ("e6" works).
func ExperimentByID(id string) (Experiment, bool) {
	want := strings.ToUpper(strings.TrimSpace(id))
	for _, e := range Experiments() {
		if e.ID == want {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentIDRange names the suite's span for error messages, so CLI
// hints track the registry as experiments are added.
func ExperimentIDRange() string {
	exps := Experiments()
	return fmt.Sprintf("%s..%s", exps[0].ID, exps[len(exps)-1].ID)
}

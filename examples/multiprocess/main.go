// Multiprocess scenario: the key-management question the survey defers
// to Kuhn's TrustNo1 concept (§1). Four processes share one secure SoC;
// each gets its own bus-encryption key, assigned by the trusted kernel.
// The demo measures the key-reload tax across scheduling quanta and
// shows the isolation it buys: identical plaintext in two processes
// never repeats on the bus, and a probe cannot correlate domains.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/crypto/modes"
	"repro/internal/edu/multikey"
	"repro/internal/edu/products"
	"repro/internal/sim/soc"
	"repro/internal/sim/trace"
)

const procs = 4

func buildEngine() (*multikey.Engine, error) {
	regions := make([]multikey.Region, procs)
	for p := 0; p < procs; p++ {
		base, limit := trace.MultiProcessConfig{}.ProcessRegion(p)
		// Same cipher, different per-process salt = different key domain.
		inner, err := products.AEGIS([]byte("0123456789abcdef"), modes.IVCounter, uint64(1000+p))
		if err != nil {
			return nil, err
		}
		regions[p] = multikey.Region{
			Base: base, Limit: limit, Engine: inner,
			Name: fmt.Sprintf("proc%d", p),
		}
	}
	return multikey.New(multikey.Config{Regions: regions, SwitchCycles: 20})
}

func main() {
	// Isolation first: one plaintext, two processes.
	eng, err := buildEngine()
	if err != nil {
		log.Fatal(err)
	}
	secret := bytes.Repeat([]byte{0x42}, 32)
	ctA := make([]byte, 32)
	ctB := make([]byte, 32)
	baseA, _ := trace.MultiProcessConfig{}.ProcessRegion(0)
	baseB, _ := trace.MultiProcessConfig{}.ProcessRegion(1)
	eng.EncryptLine(baseA+0x100, ctA, secret)
	eng.EncryptLine(baseB+0x100, ctB, secret)
	fmt.Printf("same plaintext, two process domains: ciphertexts differ = %v\n\n",
		!bytes.Equal(ctA, ctB))

	// Then the cost: key-reload tax vs scheduling quantum.
	fmt.Println("quantum(refs)  domain-switches  cycles     vs single-key")
	for _, quantum := range []int{100, 1000, 10000} {
		tr := trace.MultiProcessSource(trace.MultiProcessConfig{
			Config:  trace.Config{Refs: 60000, Seed: 6, LoadFraction: 0.3, WriteFraction: 0.3, Locality: 0.6},
			Procs:   procs,
			Quantum: quantum,
		})

		multi, err := buildEngine()
		if err != nil {
			log.Fatal(err)
		}
		cfg := soc.DefaultConfig()
		cfg.Engine = multi
		s, err := soc.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		rep := s.Run(tr)

		single, err := products.AEGIS([]byte("0123456789abcdef"), modes.IVCounter, 7)
		if err != nil {
			log.Fatal(err)
		}
		cfgS := soc.DefaultConfig()
		cfgS.Engine = single
		sS, err := soc.New(cfgS)
		if err != nil {
			log.Fatal(err)
		}
		repS := sS.Run(tr)

		fmt.Printf("%-13d  %-15d  %-9d  %+.2f%%\n",
			quantum, multi.Switches, rep.Cycles,
			100*(float64(rep.Cycles)/float64(repS.Cycles)-1))
	}
	fmt.Println("\nper-process keys cost a reload on every domain switch —")
	fmt.Println("negligible at realistic quanta, and the isolation is structural.")
}

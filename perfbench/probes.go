package main

// Standalone per-op probes for the layers soc.Run calls but the
// wrappers cannot isolate: the crypto kernels (checked block by block
// against the Go standard library, which is also their reported
// ceiling), the cache hierarchy replaying verified-l2's reference
// stream, and DRAM replaying that hierarchy's chip-boundary events.

import (
	stdaes "crypto/aes"
	stddes "crypto/des"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/crypto/aes"
	"repro/internal/crypto/des"
	"repro/internal/crypto/ghash"
	"repro/internal/sim/cache"
	"repro/internal/sim/dram"
	"repro/internal/sim/trace"
)

// probes fills the crypto, cache and dram metrics and returns the cache
// probe, whose event counts the verified-l2 ledger uses.
func probes(layer map[string]float64, seed int64) (*cacheProbeOut, error) {
	if err := cryptoProbes(layer); err != nil {
		return nil, err
	}
	cp, err := cacheProbe(seed)
	if err != nil {
		return nil, err
	}
	layer["cache.access_ns_per_ref"] = cp.nsPerRef
	layer["cache.l1_hit_ratio"] = cp.l1Hit
	layer["cache.l2_hit_ratio"] = cp.l2Hit
	dramProbes(layer, cp)
	return cp, nil
}

// perOp times op(n) for growing n until one call lasts at least 10 ms,
// then returns the median ns per operation over five such calls.
func perOp(op func(n int)) float64 {
	n := 16
	for {
		t := time.Now()
		op(n)
		if time.Since(t) >= 10*time.Millisecond {
			break
		}
		n *= 2
	}
	d := make([]time.Duration, 5)
	for i := range d {
		t := time.Now()
		op(n)
		d[i] = time.Since(t)
	}
	return float64(quantile(d, 0.5).Nanoseconds()) / float64(n)
}

// blockCipher is the Encrypt/Decrypt pair both the in-repo ciphers and
// the standard library's expose.
type blockCipher interface {
	Encrypt(dst, src []byte)
	Decrypt(dst, src []byte)
}

// chain applies f to a block n times, each output feeding the next
// input, so the compiler cannot drop the calls and the final block
// depends on every one of them.
func chain(f func(dst, src []byte), block []byte, n int) {
	for range n {
		f(block, block)
	}
}

// oracle runs the same chain of n blocks through ours and the standard
// library's cipher in both directions and reports the first difference.
func oracle(name string, ours, std blockCipher, size, n int) error {
	a, b := make([]byte, size), make([]byte, size)
	for i := range a {
		a[i], b[i] = byte(i*7+1), byte(i*7+1)
	}
	for dir, pair := range [][2]func(dst, src []byte){{ours.Encrypt, std.Encrypt}, {ours.Decrypt, std.Decrypt}} {
		chain(pair[0], a, n)
		chain(pair[1], b, n)
		if string(a) != string(b) {
			return fmt.Errorf("crypto oracle: %s %s chain of %d blocks gives %x, standard library %x",
				name, []string{"encrypt", "decrypt"}[dir], n, a, b)
		}
	}
	return nil
}

var (
	aesKey  = []byte("0123456789abcdef")
	desKey  = []byte("on-chip!")
	des3Key = []byte("0123456789abcdef01234567")
)

func cryptoProbes(layer map[string]float64) error {
	ourAES, err := aes.New(aesKey)
	if err != nil {
		return err
	}
	stdAES, err := stdaes.NewCipher(aesKey)
	if err != nil {
		return err
	}
	ourDES, err := des.New(desKey)
	if err != nil {
		return err
	}
	stdDES, err := stddes.NewCipher(desKey)
	if err != nil {
		return err
	}
	ourDES3, err := des.NewTriple(des3Key)
	if err != nil {
		return err
	}
	stdDES3, err := stddes.NewTripleDESCipher(des3Key)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name      string
		ours, std blockCipher
		size      int
	}{{"aes", ourAES, stdAES, 16}, {"des", ourDES, stdDES, 8}, {"des3", ourDES3, stdDES3, 8}} {
		if err := oracle(c.name, c.ours, c.std, c.size, 64); err != nil {
			return err
		}
	}
	timeChain := func(f func(dst, src []byte), size int) float64 {
		block := make([]byte, size)
		return perOp(func(n int) { chain(f, block, n) })
	}
	layer["crypto.aes_encrypt_ns_per_block"] = timeChain(ourAES.Encrypt, 16)
	layer["crypto.aes_decrypt_ns_per_block"] = timeChain(ourAES.Decrypt, 16)
	layer["crypto.des_ns_per_block"] = timeChain(ourDES.Encrypt, 8)
	layer["crypto.des3_ns_per_block"] = timeChain(ourDES3.Encrypt, 8)
	layer["crypto.stdlib_aes_ns_per_block"] = timeChain(stdAES.Encrypt, 16)
	layer["crypto.stdlib_des_ns_per_block"] = timeChain(stdDES.Encrypt, 8)

	key := ghash.NewKey([]byte("ghash-tag-key-01"))
	line := make([]byte, 32)
	layer["crypto.ghash_ns_per_line"] = perOp(func(n int) {
		for i := range n {
			tag := key.TagLine(uint64(i)*32, uint64(i), line)
			copy(line, tag[:])
		}
	})
	return nil
}

// cacheProbeOut is a standalone replay of verified-l2's stream through
// a cache hierarchy of its geometry.
type cacheProbeOut struct {
	refs         int
	nsPerRef     float64
	l1Hit, l2Hit float64
	// fills and writebacks are the chip-boundary line addresses of one
	// warm pass, in order.
	fills, writebacks []uint64
}

func newVerifiedHierarchy() (*cache.Hierarchy, error) {
	cfg := verifiedGeometry()
	l1, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return cache.NewHierarchy(l1, l2)
}

func hitRatio(s cache.Stats) float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheProbe replays the stream once to warm the hierarchy, then times
// five passes (each drained by Flush, as soc.Run ends) and records the
// chip-boundary events of one more.
func cacheProbe(seed int64) (*cacheProbeOut, error) {
	refs := trace.Drain(verifiedSource(seed)).Refs
	h, err := newVerifiedHierarchy()
	if err != nil {
		return nil, err
	}
	pass := func(record *cacheProbeOut) {
		for _, r := range refs {
			_, evs := h.Access(r.Addr, r.Kind == trace.Store)
			if record != nil {
				record.chip(evs)
			}
		}
		evs := h.Flush()
		if record != nil {
			record.chip(evs)
		}
	}
	pass(nil)
	out := &cacheProbeOut{refs: len(refs)}
	d := make([]time.Duration, 5)
	for i := range d {
		h.Level(0).ResetStats()
		h.Level(1).ResetStats()
		t := time.Now()
		pass(nil)
		d[i] = time.Since(t)
	}
	out.nsPerRef = float64(quantile(d, 0.5).Nanoseconds()) / float64(len(refs))
	out.l1Hit = hitRatio(h.Level(0).Stats())
	out.l2Hit = hitRatio(h.Level(1).Stats())
	pass(out)
	return out, nil
}

func (c *cacheProbeOut) chip(evs []cache.Event) {
	for _, ev := range evs {
		if ev.PeerSlot >= 0 {
			continue
		}
		if ev.Kind == cache.EvFill {
			c.fills = append(c.fills, ev.Addr)
		} else {
			c.writebacks = append(c.writebacks, ev.Addr)
		}
	}
}

// dramProbes replays the probe's chip fills as timed line reads and its
// writebacks as timed line writes into a DRAM whose pages every event
// has already touched, and the fills into fresh DRAMs (first touch, as
// a newly built SoC pays it).
func dramProbes(layer map[string]float64, cp *cacheProbeOut) {
	newDRAM := func() *dram.DRAM {
		d, err := dram.New(dram.DefaultConfig())
		if err != nil {
			fail(err)
		}
		return d
	}
	line := make([]byte, 32)
	read := func(d *dram.DRAM, addrs []uint64) {
		for _, a := range addrs {
			d.AccessCycles(a)
			d.ReadInto(a, line)
		}
	}
	write := func(d *dram.DRAM, addrs []uint64) {
		for i, a := range addrs {
			binary.LittleEndian.PutUint64(line, uint64(i))
			d.AccessCycles(a)
			d.Write(a, line)
		}
	}
	warm := newDRAM()
	write(warm, cp.fills)
	write(warm, cp.writebacks)
	timeLines := func(addrs []uint64, f func([]uint64)) float64 {
		if len(addrs) == 0 {
			return 0
		}
		d := make([]time.Duration, 5)
		for i := range d {
			t := time.Now()
			f(addrs)
			d[i] = time.Since(t)
		}
		return float64(quantile(d, 0.5).Nanoseconds()) / float64(len(addrs))
	}
	layer["dram.read_ns_per_line"] = timeLines(cp.fills, func(a []uint64) { read(warm, a) })
	layer["dram.write_ns_per_line"] = timeLines(cp.writebacks, func(a []uint64) { write(warm, a) })
	layer["dram.cold_read_ns_per_line"] = timeLines(cp.fills, func(a []uint64) { read(newDRAM(), a) })
}

package authtree

import (
	"math/rand"
	"testing"

	"repro/internal/crypto/ghash"
	"repro/internal/edu"
)

var testKey = []byte("0123456789abcdef")

func testRegions() []Region {
	return []Region{
		{Base: 0, Bytes: 1 << 20},
		{Base: 0x4000_0000, Bytes: 4 << 20},
	}
}

func mkTree(t *testing.T, variant Variant, nodeCacheBytes int) *Tree {
	t.Helper()
	tr, err := New(Config{
		Key: testKey, LineBytes: 32, Regions: testRegions(),
		NodeCacheBytes: nodeCacheBytes, Variant: variant,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func line(seed byte) []byte {
	b := make([]byte, 32)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Key: []byte("short"), LineBytes: 32, Regions: testRegions()},
		{Key: testKey, LineBytes: 33, Regions: testRegions()},
		{Key: testKey, LineBytes: 32},
		{Key: testKey, LineBytes: 32, Regions: testRegions(), Arity: 3},
		{Key: testKey, LineBytes: 32, Regions: []Region{{Base: 7, Bytes: 1024}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	if _, err := NewFlat(FlatConfig{Key: testKey, Fresh: true}); err == nil {
		t.Error("flat freshness without a table bound accepted")
	}
}

func TestLevelsAndNodeGeometry(t *testing.T) {
	tr := mkTree(t, HashTree, 4<<10)
	// 5 MiB protected at 32 B/line = 160 Ki leaves; arity 8 needs
	// ceil(log8(160Ki)) = 6 interior levels including the root.
	if tr.Levels() != 6 {
		t.Errorf("Levels = %d, want 6", tr.Levels())
	}
	if tr.NodeBytes() != 16*8 {
		t.Errorf("hash node = %dB, want 128", tr.NodeBytes())
	}
	ct := mkTree(t, CounterTree, 4<<10)
	if ct.NodeBytes() != 8*8+8 {
		t.Errorf("counter node = %dB, want 72", ct.NodeBytes())
	}
	if ct.NodeBytes() >= tr.NodeBytes() {
		t.Error("counter-tree nodes should be smaller than hash-tree nodes")
	}
}

// Legitimate write-then-read must verify, for both variants and both
// flat schemes.
func TestRoundTripVerifies(t *testing.T) {
	verifiers := []edu.Verifier{
		mkTree(t, HashTree, 4<<10),
		mkTree(t, CounterTree, 4<<10),
		mustFlat(t, false),
		mustFlat(t, true),
	}
	for _, v := range verifiers {
		ct := line(3)
		v.UpdateWrite(0x40, ct)
		if _, ok := v.VerifyRead(0x40, ct); !ok {
			t.Errorf("%s: legitimate read rejected", v.Name())
		}
		// Rewrite with new content, re-read.
		ct2 := line(9)
		v.UpdateWrite(0x40, ct2)
		if _, ok := v.VerifyRead(0x40, ct2); !ok {
			t.Errorf("%s: read after rewrite rejected", v.Name())
		}
	}
}

func mustFlat(t *testing.T, fresh bool) *Flat {
	t.Helper()
	f, err := NewFlat(FlatConfig{Key: testKey, Fresh: fresh, ProtectedLines: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The three attacks at the verifier seam: spoof (content), splice
// (address), replay (freshness).
func TestAttackDetection(t *testing.T) {
	type tamperCase struct {
		name string
		// wantDetected[i] is the expectation for
		// {hash-tree, counter-tree, flat-mac, flat-fresh}.
		want [4]bool
		run  func(v edu.Verifier) bool // returns detected
	}
	genuine := line(1)
	other := line(2)
	cases := []tamperCase{
		{"spoof", [4]bool{true, true, true, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x40, genuine)
			junk := line(0xEE)
			_, ok := v.VerifyRead(0x40, junk)
			return !ok
		}},
		{"splice", [4]bool{true, true, true, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x00, genuine)
			v.UpdateWrite(0x40, other)
			// Relocate ciphertext AND tag from 0x00 to 0x40.
			ts := v.(interface {
				TagAt(uint64) ([ghash.TagBytes]byte, bool)
				TamperTag(uint64, [ghash.TagBytes]byte)
			})
			if tag, had := ts.TagAt(0x00); had {
				ts.TamperTag(0x40, tag)
			}
			_, ok := v.VerifyRead(0x40, genuine) // 0x00's bytes at 0x40
			return !ok
		}},
		{"replay", [4]bool{true, true, false, true}, func(v edu.Verifier) bool {
			v.UpdateWrite(0x40, genuine)
			ts := v.(interface {
				TagAt(uint64) ([ghash.TagBytes]byte, bool)
				TamperTag(uint64, [ghash.TagBytes]byte)
			})
			staleTag, _ := ts.TagAt(0x40)
			// Legitimate rewrite, then roll back ct + tag.
			v.UpdateWrite(0x40, other)
			ts.TamperTag(0x40, staleTag)
			_, ok := v.VerifyRead(0x40, genuine)
			return !ok
		}},
	}
	for _, tc := range cases {
		verifiers := []edu.Verifier{
			mkTree(t, HashTree, 4<<10),
			mkTree(t, CounterTree, 4<<10),
			mustFlat(t, false),
			mustFlat(t, true),
		}
		for i, v := range verifiers {
			if got := tc.run(v); got != tc.want[i] {
				t.Errorf("%s under %s: detected=%v, want %v", tc.name, v.Name(), got, tc.want[i])
			}
		}
	}
}

// Unprotected addresses bypass verification (counted, free, accepted).
func TestUnprotectedBypass(t *testing.T) {
	tr := mkTree(t, HashTree, 4<<10)
	stall, ok := tr.VerifyRead(0x9000_0000, line(5))
	if !ok || stall != 0 {
		t.Fatalf("unprotected read: stall=%d ok=%v, want 0,true", stall, ok)
	}
	if tr.Unprotected != 1 {
		t.Fatalf("Unprotected = %d, want 1", tr.Unprotected)
	}
}

// The node cache is the cost lever: the same access stream must get
// cheaper (higher hit rate, lower cumulative stall) as the cache grows.
func TestNodeCacheLocality(t *testing.T) {
	run := func(nodeCacheBytes int) (stall uint64, hitRate float64) {
		tr := mkTree(t, HashTree, nodeCacheBytes)
		rng := rand.New(rand.NewSource(7))
		ct := line(1)
		// A looping working set of 512 lines (16 KiB): tree locality a
		// real node cache can exploit.
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(512)) * 32
			if rng.Intn(4) == 0 {
				stall += tr.UpdateWrite(addr, ct)
			} else {
				s, _ := tr.VerifyRead(addr, ct)
				stall += s
			}
		}
		return stall, tr.NodeHitRate()
	}
	smallStall, smallHit := run(512)
	bigStall, bigHit := run(16 << 10)
	if bigStall >= smallStall {
		t.Errorf("16K node cache stall %d >= 512B stall %d", bigStall, smallStall)
	}
	if bigHit <= smallHit {
		t.Errorf("16K node cache hit rate %.3f <= 512B hit rate %.3f", bigHit, smallHit)
	}
}

// On-chip area: trees are flat in protected size; the flat freshness
// table is linear in it — the motivating contrast.
func TestGatesScaling(t *testing.T) {
	small, err := New(Config{Key: testKey, LineBytes: 32,
		Regions: []Region{{Base: 0, Bytes: 4 << 20}}, NodeCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(Config{Key: testKey, LineBytes: 32,
		Regions: []Region{{Base: 0, Bytes: 512 << 20}}, NodeCacheBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.Gates() != big.Gates() {
		t.Errorf("tree gates vary with protected size: %d vs %d", small.Gates(), big.Gates())
	}
	if big.Levels() <= small.Levels() {
		t.Errorf("levels should grow with protected size: %d vs %d", big.Levels(), small.Levels())
	}

	flatSmall, _ := NewFlat(FlatConfig{Key: testKey, Fresh: true, ProtectedLines: (4 << 20) / 32})
	flatBig, _ := NewFlat(FlatConfig{Key: testKey, Fresh: true, ProtectedLines: (512 << 20) / 32})
	if flatBig.Gates() <= 100*flatSmall.Gates() {
		t.Errorf("flat-fresh gates should scale ~linearly: %d vs %d", flatSmall.Gates(), flatBig.Gates())
	}
	// The accounting rule is shared: counter table = lines * 8 bytes *
	// edu.SRAMGatesPerByte, plus the hash datapath.
	want := edu.GHASHUnitGates + (4<<20)/32*8*edu.SRAMGatesPerByte
	if flatSmall.Gates() != want {
		t.Errorf("flat-fresh gates = %d, want %d (shared SRAM rule)", flatSmall.Gates(), want)
	}
}

// Steady-state verifier operations must not allocate: they sit on the
// SoC's 0 allocs/ref miss path.
func TestVerifierZeroAllocs(t *testing.T) {
	for _, v := range []edu.Verifier{
		mkTree(t, HashTree, 1<<10),
		mkTree(t, CounterTree, 1<<10),
		mustFlat(t, true),
	} {
		ct := line(1)
		// Warm every line's tag entry, then measure.
		for a := uint64(0); a < 256*32; a += 32 {
			v.UpdateWrite(a, ct)
			v.VerifyRead(a, ct)
		}
		i := 0
		if avg := testing.AllocsPerRun(200, func() {
			a := uint64(i%256) * 32
			i++
			v.VerifyRead(a, ct)
			v.UpdateWrite(a, ct)
		}); avg != 0 {
			t.Errorf("%s: %.2f allocs per op, want 0", v.Name(), avg)
		}
	}
}

// mapTree is the reference model for the leaf store: per-line state in
// address-keyed maps, the plainest store with the same semantics. It
// drives its own Tree for geometry, node-cache walks and counters, and
// replaces only the per-line state. Addresses outside every region
// have no tag slot here too: TagAt reports false, TamperTag is a no-op.
type mapTree struct {
	*Tree
	ext, trusted map[uint64]ghash.Tag
	ver          map[uint64]uint64
}

func newMapTree(t *testing.T, variant Variant, nodeCacheBytes int) *mapTree {
	return &mapTree{
		Tree:    mkTree(t, variant, nodeCacheBytes),
		ext:     make(map[uint64]ghash.Tag),
		trusted: make(map[uint64]ghash.Tag),
		ver:     make(map[uint64]uint64),
	}
}

func (m *mapTree) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	leaf, protected := m.leafIndex(addr)
	if !protected {
		m.Unprotected++
		return 0, true
	}
	stall := uint64(m.cfg.TagCycles)
	want := m.key.TagLine(addr, m.ver[addr], ct)
	m.Tags++
	stored, enrolled := m.ext[addr]
	if !enrolled {
		m.ext[addr], m.trusted[addr] = want, want
		m.Verified++
		return stall + m.walkUpdate(leaf), true
	}
	stall += m.walkVerify(leaf)
	if want != stored || stored != m.trusted[addr] {
		m.Violations++
		return stall, false
	}
	m.Verified++
	return stall, true
}

func (m *mapTree) UpdateWrite(addr uint64, ct []byte) uint64 {
	leaf, protected := m.leafIndex(addr)
	if !protected {
		m.Unprotected++
		return 0
	}
	if m.cfg.Variant == CounterTree {
		m.ver[addr]++
	}
	tag := m.key.TagLine(addr, m.ver[addr], ct)
	m.Tags++
	m.ext[addr], m.trusted[addr] = tag, tag
	return uint64(m.cfg.TagCycles) + m.walkUpdate(leaf)
}

func (m *mapTree) TagAt(addr uint64) (ghash.Tag, bool) {
	tag, ok := m.ext[addr]
	return tag, ok
}

func (m *mapTree) TamperTag(addr uint64, tag ghash.Tag) {
	if _, protected := m.leafIndex(addr); protected {
		m.ext[addr] = tag
	}
}

// The leaf records must reproduce the map model exactly: same verdicts,
// stalls and tags, and the same counters, under random reads, writes,
// spoofs, splices, replays and forged tags over both regions, some never-
// written lines and some unprotected addresses.
func TestLeafStoreMatchesMapModel(t *testing.T) {
	for _, variant := range []Variant{HashTree, CounterTree} {
		for _, nodeCache := range []int{512, 4 << 10} {
			rng := rand.New(rand.NewSource(int64(variant)*10 + int64(nodeCache)))
			got := mkTree(t, variant, nodeCache)
			ref := newMapTree(t, variant, nodeCache)
			// A working set per region: lines in one 8 KiB cluster (so
			// pages are shared) and lines scattered over the region.
			var addrs []uint64
			for _, r := range testRegions() {
				for i := uint64(0); i < 256; i++ {
					addrs = append(addrs, r.Base+i*32)
					addrs = append(addrs, r.Base+uint64(rng.Int63n(int64(r.Bytes/32)))*32)
				}
			}
			addrs = append(addrs, 0x9000_0000, 1<<20, 0x4000_0000+4<<20)
			mem := make(map[uint64][]byte) // what DRAM holds per line
			type snapshot struct {
				ct  []byte
				tag ghash.Tag
			}
			stale := make(map[uint64]snapshot) // a line's state before its last write
			content := func(a uint64) []byte {
				if b, ok := mem[a]; ok {
					return b
				}
				return line(0)
			}
			pick := func() uint64 { return addrs[rng.Intn(len(addrs))] }
			for op := 0; op < 20000; op++ {
				a := pick()
				switch k := rng.Intn(20); {
				case k < 9: // read what DRAM holds
					gs, gok := got.VerifyRead(a, content(a))
					rs, rok := ref.VerifyRead(a, content(a))
					if gs != rs || gok != rok {
						t.Fatalf("%v op %d read %#x: got (%d,%v), model (%d,%v)", variant, op, a, gs, gok, rs, rok)
					}
				case k < 14: // legitimate write
					if tag, ok := ref.TagAt(a); ok {
						stale[a] = snapshot{content(a), tag}
					}
					ct := line(byte(rng.Intn(256)))
					mem[a] = ct
					if gs, rs := got.UpdateWrite(a, ct), ref.UpdateWrite(a, ct); gs != rs {
						t.Fatalf("%v op %d write %#x: stall %d, model %d", variant, op, a, gs, rs)
					}
				case k < 15: // replay: roll bytes and tag back
					if snap, ok := stale[a]; ok {
						mem[a] = snap.ct
						got.TamperTag(a, snap.tag)
						ref.TamperTag(a, snap.tag)
					}
				case k < 16: // spoof: junk bytes in DRAM
					mem[a] = line(byte(rng.Intn(256)))
				case k < 17: // splice: another line's bytes and tag
					src := pick()
					mem[a] = content(src)
					if tag, ok := ref.TagAt(src); ok {
						got.TamperTag(a, tag)
						ref.TamperTag(a, tag)
					}
				case k < 18: // forged tag
					var tag ghash.Tag
					rng.Read(tag[:])
					got.TamperTag(a, tag)
					ref.TamperTag(a, tag)
				default: // the attacker reads the tag store
					gt, gok := got.TagAt(a)
					rt, rok := ref.TagAt(a)
					if gt != rt || gok != rok {
						t.Fatalf("%v op %d TagAt %#x: got (%x,%v), model (%x,%v)", variant, op, a, gt, gok, rt, rok)
					}
				}
			}
			type counters struct{ verified, violations, tags, hits, fetches, unprotected uint64 }
			g := counters{got.Verified, got.Violations, got.Tags, got.NodeHits, got.NodeFetches, got.Unprotected}
			r := counters{ref.Verified, ref.Violations, ref.Tags, ref.NodeHits, ref.NodeFetches, ref.Unprotected}
			if g != r {
				t.Errorf("%v cache %d: counters %+v, model %+v", variant, nodeCache, g, r)
			}
			if g.violations == 0 || g.unprotected == 0 {
				t.Errorf("%v cache %d: sequence exercised no violations or no unprotected traffic: %+v", variant, nodeCache, g)
			}
		}
	}
}

// An address outside every protected region has no tag slot: TagAt
// reports false and TamperTag changes nothing, before and after the
// line is read or written.
func TestUnprotectedTagSlot(t *testing.T) {
	for _, variant := range []Variant{HashTree, CounterTree} {
		tr := mkTree(t, variant, 4<<10)
		for _, a := range []uint64{0x9000_0000, 1 << 20, 0x4000_0000 + 4<<20} {
			tr.TamperTag(a, ghash.Tag{1, 2, 3})
			if tag, ok := tr.TagAt(a); ok {
				t.Errorf("%v: TagAt(%#x) after tamper = %x, true; want false", variant, a, tag)
			}
			tr.UpdateWrite(a, line(1))
			if _, ok := tr.TagAt(a); ok {
				t.Errorf("%v: TagAt(%#x) after write reports a tag", variant, a)
			}
			if _, ok := tr.VerifyRead(a, line(2)); !ok {
				t.Errorf("%v: unprotected read at %#x rejected", variant, a)
			}
		}
		if tr.Unprotected != 6 || tr.Tags != 0 {
			t.Errorf("%v: Unprotected=%d Tags=%d, want 6 and 0", variant, tr.Unprotected, tr.Tags)
		}
		// A protected line still reports its tag, and a tamper on a
		// never-enrolled protected line makes its next read a violation.
		tr.UpdateWrite(0x40, line(1))
		if _, ok := tr.TagAt(0x40); !ok {
			t.Errorf("%v: protected line has no tag after a write", variant)
		}
		if _, ok := tr.TagAt(0x80); ok {
			t.Errorf("%v: never-touched protected line reports a tag", variant)
		}
		tr.TamperTag(0x80, ghash.Tag{1})
		if _, ok := tr.VerifyRead(0x80, line(1)); ok {
			t.Errorf("%v: read after a tamper on a never-enrolled line verified", variant)
		}
	}
}

// BenchmarkVerifyRead is the warm verify path: 4096 enrolled lines of
// a counter tree, read round-robin, so every call finds its leaf page.
func BenchmarkVerifyRead(b *testing.B) {
	tr, err := New(Config{
		Key: testKey, LineBytes: 32, Regions: testRegions(),
		NodeCacheBytes: 4 << 10, Variant: CounterTree,
	})
	if err != nil {
		b.Fatal(err)
	}
	ct := line(1)
	const lines = 4096
	for i := uint64(0); i < lines; i++ {
		tr.UpdateWrite(i*32, ct)
	}
	b.ReportAllocs()
	var i uint64
	for b.Loop() {
		if _, ok := tr.VerifyRead(i%lines*32, ct); !ok {
			b.Fatal("warm read rejected")
		}
		i++
	}
}

// Package authtree is the memory-authentication subsystem the survey's
// future-work section points toward and AEGIS develops: integrity trees
// over protected DRAM with only the root held on-chip. The flat
// authenticator of edu/integrity charges O(protected memory) on-chip
// SRAM for its freshness counters; a tree pays O(1) on-chip (the root
// plus a bounded node cache) and moves the rest of the structure into
// untrusted external memory, authenticated level by level.
//
// Two variants span the design space:
//
//   - HashTree: a Merkle tree whose leaves are the per-line tags and
//     whose interior nodes hash their children at full 128-bit width.
//   - CounterTree: the AEGIS/TEC-tree direction — interior nodes hold
//     per-child freshness counters (8 bytes each) plus one node tag, so
//     nodes are smaller: the same on-chip SRAM caches more of the tree
//     and each uncached level moves fewer bus bytes.
//
// Node tags use a GHASH-style keyed universal hash (crypto/ghash): a
// carryless multiplier is cheap enough to put on the miss path, which
// is what makes per-node authentication affordable at all.
//
// The on-chip node cache is the performance lever: a verification walk
// climbs only until it meets a node already verified this epoch (cached
// copies are inside the trust boundary), so the cost of a miss depends
// on tree locality rather than always paying log(N) hashes. Updates dirty
// the cached path lazily and pay the propagation on eviction — the
// cached-tree discipline of the AEGIS literature.
//
// Simulation contract: each protected line has one leaf record holding
// its external tag (attacker-tamperable via TagAt/TamperTag), its
// root-anchored ground-truth tag and its counter. Records live in
// 64-leaf pages allocated on first touch. Interior nodes are modeled
// positionally — the walk charges fetch/hash cycles against real
// node-cache state, while the verdict is computed against the
// root-anchored ground truth the walk would reconstruct. For the tamper
// surface the attack harness implements (DRAM data + external tag
// store), the two are equivalent; see DESIGN.md §7. All steady-state
// operations are allocation-free.
package authtree

import (
	"fmt"

	"repro/internal/crypto/ghash"
	"repro/internal/edu"
	"repro/internal/obs/rec"
)

// Variant selects the tree flavor.
type Variant int

const (
	// HashTree is a Merkle tree: interior nodes are full-width hashes
	// of their children.
	HashTree Variant = iota
	// CounterTree is the AEGIS direction: interior nodes carry
	// per-child counters plus a node tag, so nodes are smaller.
	CounterTree
)

// String names the variant as reports print it.
func (v Variant) String() string {
	if v == CounterTree {
		return "counter-tree"
	}
	return "hash-tree"
}

// Region is one protected window of the physical address space.
// Regions map contiguously into the tree's leaf index space in slice
// order; accesses outside every region bypass authentication (and are
// counted — unprotected traffic should be a deliberate choice).
type Region struct {
	Base, Bytes uint64
}

// Config assembles a tree authenticator.
type Config struct {
	// Key is the 16-byte GHASH key.
	Key []byte
	// LineBytes is the protected granule — the SoC's cache line size.
	LineBytes int
	// Arity is children per interior node; power of two, default 8.
	Arity int
	// Regions are the protected DRAM windows (required, non-empty).
	Regions []Region
	// NodeCacheBytes is the on-chip node cache SRAM; default 4 KiB.
	NodeCacheBytes int
	// Variant selects HashTree or CounterTree.
	Variant Variant
	// TagCycles is the leaf-tag (GHASH over a line) pipeline tail
	// visible beyond the transfer; default 8.
	TagCycles int
	// NodeHashCycles is the cost of hashing one interior node;
	// default 4 (nodes are smaller than lines).
	NodeHashCycles int
}

// Tree is one tree authenticator instance. It implements edu.Verifier.
type Tree struct {
	cfg        Config
	key        *ghash.Key
	log2Arity  uint
	levels     int    // interior levels; level `levels` is the on-chip root
	leaves     uint64 // leaf slots across all regions
	nodeBytes  int
	fetchCost  uint64 // external node fetch/writeback, CPU cycles
	cache      nodeCache
	store      leafStore
	Verified   uint64 // successful line verifications
	Violations uint64 // detected tampers
	// Unprotected counts reads/writes outside every protected region.
	Unprotected uint64
	// NodeHits / NodeFetches split verification walks by node-cache
	// outcome: the locality the node cache exists to exploit.
	NodeHits, NodeFetches uint64
	// Tags counts GHASH line-tag evaluations — the tag unit's
	// throughput demand.
	Tags uint64
	// rc is the flight recorder (nil = no-op): walks emit per-node
	// fetch/hit/dirty-propagate events under the SoC's current stamp.
	rc *rec.Recorder
}

// New builds a tree authenticator.
func New(cfg Config) (*Tree, error) {
	if len(cfg.Key) != ghash.KeySize {
		return nil, fmt.Errorf("authtree: key must be %d bytes, got %d", ghash.KeySize, len(cfg.Key))
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("authtree: line size %d not a positive power of two", cfg.LineBytes)
	}
	if cfg.Arity == 0 {
		cfg.Arity = 8
	}
	if cfg.Arity < 2 || cfg.Arity&(cfg.Arity-1) != 0 {
		return nil, fmt.Errorf("authtree: arity %d not a power of two >= 2", cfg.Arity)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("authtree: no protected regions")
	}
	var total uint64
	for _, r := range cfg.Regions {
		if r.Bytes == 0 || r.Bytes%uint64(cfg.LineBytes) != 0 || r.Base%uint64(cfg.LineBytes) != 0 {
			return nil, fmt.Errorf("authtree: region %+v not line-aligned", r)
		}
		total += r.Bytes
	}
	if cfg.NodeCacheBytes == 0 {
		cfg.NodeCacheBytes = 4 << 10
	}
	if cfg.NodeCacheBytes < 0 {
		return nil, fmt.Errorf("authtree: negative node cache size")
	}
	if cfg.TagCycles == 0 {
		cfg.TagCycles = 8
	}
	if cfg.NodeHashCycles == 0 {
		cfg.NodeHashCycles = 4
	}

	t := &Tree{
		cfg:    cfg,
		key:    ghash.NewKey(cfg.Key),
		leaves: total / uint64(cfg.LineBytes),
	}
	t.store.init(t.leaves)
	for a := cfg.Arity; a > 1; a >>= 1 {
		t.log2Arity++
	}
	// Interior levels until one node covers every leaf; that single
	// top node is the on-chip root.
	for n := t.leaves; n > uint64(cfg.Arity); n = (n + uint64(cfg.Arity) - 1) / uint64(cfg.Arity) {
		t.levels++
	}
	t.levels++ // the root level itself

	switch cfg.Variant {
	case CounterTree:
		// Per-child 8-byte counters plus one 8-byte node tag.
		t.nodeBytes = 8*cfg.Arity + 8
	default:
		// Full-width interior hashes: collision resistance lives here.
		t.nodeBytes = ghash.KeySize * cfg.Arity
	}
	// External node traffic: a first-order row access plus 32-bit bus
	// beats for the node body (see DESIGN.md §7 for the rationale).
	t.fetchCost = uint64(16 + t.nodeBytes/4)
	t.cache.init(cfg.NodeCacheBytes / t.nodeBytes)
	return t, nil
}

// SetRecorder installs the flight recorder (nil to disable): walks
// emit per-node fetch/hit/dirty-propagate events into it, stamped with
// whatever cycle/ref the SoC last set — the tree has no clock of its
// own, and the recorder's stamp discipline means it doesn't need one.
func (t *Tree) SetRecorder(r *rec.Recorder) { t.rc = r }

// Name implements edu.Verifier.
func (t *Tree) Name() string { return t.cfg.Variant.String() }

// Levels reports the interior tree depth including the root level —
// the walk length a cold verification pays.
func (t *Tree) Levels() int { return t.levels }

// NodeBytes reports one interior node's external footprint.
func (t *Tree) NodeBytes() int { return t.nodeBytes }

// Gates implements edu.Verifier: the GHASH datapath, the node-cache
// SRAM, and the root register — on-chip cost is independent of
// protected-memory size, which is the whole argument for trees.
func (t *Tree) Gates() int {
	return edu.GHASHUnitGates +
		(t.cfg.NodeCacheBytes+t.nodeBytes)*edu.SRAMGatesPerByte
}

// leafIndex maps a protected address to its leaf slot; ok=false means
// the address is outside every protected region.
func (t *Tree) leafIndex(addr uint64) (uint64, bool) {
	var offset uint64
	for _, r := range t.cfg.Regions {
		if addr >= r.Base && addr < r.Base+r.Bytes {
			return (offset + (addr - r.Base)) / uint64(t.cfg.LineBytes), true
		}
		offset += r.Bytes
	}
	return 0, false
}

func nodeKey(level int, id uint64) uint64 {
	return uint64(level)<<56 | id
}

// walkVerify climbs from the leaf's parent toward the root, stopping at
// the first node already inside the trust boundary (node-cache hit or
// the on-chip root). Each uncached level pays an external node fetch
// plus a node hash; evicting a dirty cached node pays its writeback.
func (t *Tree) walkVerify(leaf uint64) uint64 {
	var stall uint64
	for lvl := 1; lvl < t.levels; lvl++ {
		key := nodeKey(lvl, leaf>>(uint(lvl)*t.log2Arity))
		if t.cache.probe(key, false) {
			t.NodeHits++
			t.rc.Emit(rec.KindNodeHit, key, uint8(lvl), 0, 0)
			return stall + 1
		}
		t.NodeFetches++
		t.rc.Emit(rec.KindNodeFetch, key, uint8(lvl), 0, t.fetchCost+uint64(t.cfg.NodeHashCycles))
		stall += t.fetchCost + uint64(t.cfg.NodeHashCycles)
		if t.cache.insert(key, false) {
			stall += t.fetchCost // dirty victim written back
			t.rc.Emit(rec.KindDirtyPropagate, key, uint8(lvl), 0, t.fetchCost)
		}
	}
	return stall + 1 // met the on-chip root
}

// walkUpdate recomputes the path above a modified leaf. A cached
// ancestor absorbs the update in place (dirtied, propagated on
// eviction); an uncached one must be fetched and verified before it can
// be rewritten.
func (t *Tree) walkUpdate(leaf uint64) uint64 {
	var stall uint64
	for lvl := 1; lvl < t.levels; lvl++ {
		key := nodeKey(lvl, leaf>>(uint(lvl)*t.log2Arity))
		if t.cache.probe(key, true) {
			t.NodeHits++
			t.rc.Emit(rec.KindNodeHit, key, uint8(lvl), rec.FlagUpdate, 0)
			return stall + uint64(t.cfg.NodeHashCycles)
		}
		t.NodeFetches++
		t.rc.Emit(rec.KindNodeFetch, key, uint8(lvl), rec.FlagUpdate, t.fetchCost+2*uint64(t.cfg.NodeHashCycles))
		stall += t.fetchCost + 2*uint64(t.cfg.NodeHashCycles) // verify, then recompute
		if t.cache.insert(key, true) {
			stall += t.fetchCost
			t.rc.Emit(rec.KindDirtyPropagate, key, uint8(lvl), rec.FlagUpdate, t.fetchCost)
		}
	}
	return stall + uint64(t.cfg.NodeHashCycles) // root register update
}

// VerifyRead implements edu.Verifier. Two comparisons close the three
// attacks: the recomputed tag against the external store catches
// spoofing and splicing (content and address binding), and the external
// store against the root-anchored value catches replay of a stale
// (line, tag) pair. addr is a line address.
func (t *Tree) VerifyRead(addr uint64, ct []byte) (uint64, bool) {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		t.Unprotected++
		return 0, true
	}
	r := t.store.at(leaf)
	stall := uint64(t.cfg.TagCycles)
	want := t.key.TagLine(addr, r.ver, ct)
	t.Tags++
	if !r.enrolled {
		// First sight of a never-written line: enroll it, as boot
		// firmware initializing protected memory would.
		r.ext, r.trusted, r.enrolled = want, want, true
		t.Verified++
		return stall + t.walkUpdate(leaf), true
	}
	stall += t.walkVerify(leaf)
	if want != r.ext || r.ext != r.trusted {
		t.Violations++
		return stall, false
	}
	t.Verified++
	return stall, true
}

// UpdateWrite implements edu.Verifier: retag the line (bumping its
// counter under CounterTree) and propagate up the cached path. addr is
// a line address.
func (t *Tree) UpdateWrite(addr uint64, ct []byte) uint64 {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		t.Unprotected++
		return 0
	}
	r := t.store.at(leaf)
	if t.cfg.Variant == CounterTree {
		r.ver++
	}
	tag := t.key.TagLine(addr, r.ver, ct)
	t.Tags++
	r.ext, r.trusted, r.enrolled = tag, tag, true
	return uint64(t.cfg.TagCycles) + t.walkUpdate(leaf)
}

// TagAt returns the externally stored tag for a line — attacker-
// readable, like the tag memory it models. An address outside every
// protected region has no tag slot and reports false.
func (t *Tree) TagAt(addr uint64) ([ghash.TagBytes]byte, bool) {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		return ghash.Tag{}, false
	}
	r := t.store.at(leaf)
	return r.ext, r.enrolled
}

// TamperTag overwrites the external tag store — the attack harness's
// write access to external memory. Tampering a never-enrolled line
// enrolls a tag no legitimate write vouched for, so its next read is a
// violation. An address outside every protected region has no tag slot:
// the call is a no-op, as no read would ever consult the tag.
func (t *Tree) TamperTag(addr uint64, tag [ghash.TagBytes]byte) {
	leaf, protected := t.leafIndex(addr)
	if !protected {
		return
	}
	r := t.store.at(leaf)
	r.ext, r.enrolled = tag, true
}

// NodeHitRate reports the fraction of walk terminations served by the
// node cache.
func (t *Tree) NodeHitRate() float64 {
	total := t.NodeHits + t.NodeFetches
	if total == 0 {
		return 0
	}
	return float64(t.NodeHits) / float64(total)
}

// nodeCache is the on-chip cache of verified tree nodes: 4-way
// set-associative, LRU, preallocated — probes and inserts never
// allocate.
type nodeCache struct {
	entries []nodeEntry
	sets    int
	ways    int
	tick    uint64
}

type nodeEntry struct {
	key   uint64
	valid bool
	dirty bool
	used  uint64
}

func (c *nodeCache) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.ways = 4
	if capacity < c.ways {
		c.ways = capacity
	}
	// Use the whole configured budget: the set index is a plain
	// modulo, so the set count need not be a power of two. (Rounding
	// down would silently discard SRAM the Gates figure charges —
	// and with it the counter-tree's smaller-node advantage.)
	c.sets = capacity / c.ways
	if c.sets < 1 {
		c.sets = 1
	}
	c.entries = make([]nodeEntry, c.sets*c.ways)
}

func (c *nodeCache) set(key uint64) []nodeEntry {
	s := int((key ^ key>>17) % uint64(c.sets))
	return c.entries[s*c.ways : (s+1)*c.ways]
}

// probe reports residency, refreshing LRU state and optionally marking
// the node dirty (an in-place cached update).
func (c *nodeCache) probe(key uint64, markDirty bool) bool {
	c.tick++
	ways := c.set(key)
	for i := range ways {
		if ways[i].valid && ways[i].key == key {
			ways[i].used = c.tick
			if markDirty {
				ways[i].dirty = true
			}
			return true
		}
	}
	return false
}

// insert caches a just-verified node, returning whether a dirty victim
// was evicted (its propagation cost is the caller's to charge).
func (c *nodeCache) insert(key uint64, dirty bool) (evictedDirty bool) {
	c.tick++
	ways := c.set(key)
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	evictedDirty = ways[victim].valid && ways[victim].dirty
	ways[victim] = nodeEntry{key: key, valid: true, dirty: dirty, used: c.tick}
	return evictedDirty
}

// leafRecord is all the tree keeps per protected line.
type leafRecord struct {
	ext      ghash.Tag // external tag store (tamperable)
	trusted  ghash.Tag // root-anchored ground truth
	ver      uint64    // per-line counter (CounterTree; 0 under HashTree)
	enrolled bool      // ext holds a tag: written, enrolled on read, or tampered
}

// Leaf records are paged two levels deep: a top directory sized from
// the leaf count points to 64-entry directories, which point to 64-leaf
// record pages. A page is 2 KiB, so a short run that touches a few
// hundred scattered lines allocates a few hundred KiB, while a long
// run's dense footprint costs 32 bytes per line plus 1/8 byte of
// directory.
const (
	leafPageBits = 6
	leafDirBits  = 6
	leafPageMask = 1<<leafPageBits - 1
	leafDirMask  = 1<<leafDirBits - 1
)

type leafPage [1 << leafPageBits]leafRecord

type leafDir [1 << leafDirBits]*leafPage

type leafStore struct {
	top []*leafDir
}

func (s *leafStore) init(leaves uint64) {
	const span = 1 << (leafPageBits + leafDirBits)
	s.top = make([]*leafDir, (leaves+span-1)/span)
}

// at returns leaf's record, allocating its directory and page on first
// touch.
func (s *leafStore) at(leaf uint64) *leafRecord {
	dir := &s.top[leaf>>(leafPageBits+leafDirBits)]
	if *dir == nil {
		*dir = new(leafDir) //repro:allow demand paging; each directory allocates once, steady state hits existing ones
	}
	page := &(*dir)[leaf>>leafPageBits&leafDirMask]
	if *page == nil {
		*page = new(leafPage) //repro:allow demand paging; each 2 KiB page allocates once, steady state hits existing pages
	}
	return &(*page)[leaf&leafPageMask]
}

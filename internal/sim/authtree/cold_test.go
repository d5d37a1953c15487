package authtree_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sim/authtree"
)

// coldTouch builds a counter tree over the standard protected regions
// and writes then reads 2 000 lines drawn uniformly from the 16 MiB data
// window: the sparse footprint of a short cold cell, where almost every
// line lands on a leaf page of its own.
func coldTouch(tb testing.TB) {
	tr, err := authtree.New(authtree.Config{
		Key: []byte("0123456789abcdef"), LineBytes: 32,
		Regions: core.DefaultProtectedRegions(), Variant: authtree.CounterTree,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ct := make([]byte, 32)
	for i := 0; i < 2000; i++ {
		a := core.DataBase + uint64(rng.Int63n(core.ProtectedDataBytes/32))*32
		tr.UpdateWrite(a, ct)
		if _, ok := tr.VerifyRead(a, ct); !ok {
			tb.Fatalf("read of %#x rejected", a)
		}
	}
}

// A cold tree's leaf store costs at most one 2 KiB page per touched
// line plus its directories, so 2 000 scattered lines stay under
// 4.5 MiB. This pins the page size: 16 KiB pages would allocate 8x as
// much, and short cold cells (the sweep service's typical load) would
// pay it on every run. Not parallel: it reads process-wide MemStats.
func TestColdTreeMemoryBound(t *testing.T) {
	const maxBytes = 4608 << 10
	const maxAllocs = 2000 + 128 + 64 // pages, data-window directories, tree and key
	if allocs := testing.AllocsPerRun(1, func() { coldTouch(t) }); allocs > maxAllocs {
		t.Errorf("cold tree: %.0f allocations, want <= %d", allocs, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	coldTouch(t)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > maxBytes {
		t.Errorf("cold tree: %d bytes allocated, want <= %d", b, maxBytes)
	} else {
		t.Logf("cold tree: %d bytes allocated (bound %d)", b, maxBytes)
	}
}

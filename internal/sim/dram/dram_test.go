package dram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func mustDRAM(t testing.TB) *DRAM {
	t.Helper()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{RowHitCycles: 4, RowMissCycles: 2, RowSize: 1024, ClockDivider: 1}, // miss < hit
		{RowHitCycles: 4, RowMissCycles: 8, RowSize: 1000, ClockDivider: 1}, // row not pow2
		{RowHitCycles: 4, RowMissCycles: 8, RowSize: 1024, ClockDivider: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRowBufferTiming(t *testing.T) {
	d := mustDRAM(t)
	cfg := d.Config()
	first := d.AccessCycles(0) // row miss (cold)
	if first != uint64(cfg.RowMissCycles*cfg.ClockDivider) {
		t.Errorf("cold access = %d cycles", first)
	}
	second := d.AccessCycles(64) // same 2 KiB row
	if second != uint64(cfg.RowHitCycles*cfg.ClockDivider) {
		t.Errorf("row hit = %d cycles", second)
	}
	third := d.AccessCycles(uint64(cfg.RowSize)) // next row
	if third != uint64(cfg.RowMissCycles*cfg.ClockDivider) {
		t.Errorf("row switch = %d cycles", third)
	}
	if d.RowHitRate() != 1.0/3.0 {
		t.Errorf("row hit rate = %v", d.RowHitRate())
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	d := mustDRAM(t)
	data := []byte("bus encryption survey DATE 2005")
	d.Write(0x1000, data)
	got := d.Read(0x1000, len(data))
	if !bytes.Equal(got, data) {
		t.Errorf("roundtrip: got %q", got)
	}
}

func TestUntouchedMemoryReadsZero(t *testing.T) {
	d := mustDRAM(t)
	got := d.Read(0x9999000, 16)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory nonzero")
		}
	}
}

// TestColdReadDoesNotPage: reading memory nobody wrote returns zeros
// without paging it in, so cold fills cost no memory and no
// allocation; only Write pages memory in.
func TestColdReadDoesNotPage(t *testing.T) {
	d := mustDRAM(t)
	d.Write(0x1000, []byte{0xaa})
	pages := len(d.store)
	buf := bytes.Repeat([]byte{0xff}, 3*pageSize)
	// Every run reads fresh memory, so a read that paged memory in
	// would allocate on each of them.
	cold := uint64(1 << 32)
	allocs := testing.AllocsPerRun(10, func() {
		d.ReadInto(cold, buf)
		cold += 4 * pageSize
	})
	if allocs != 0 {
		t.Errorf("cold ReadInto made %v allocations, want 0", allocs)
	}
	// Straddles an unwritten page, the written one and another
	// unwritten page.
	addr := uint64(0x1000 - pageSize/2)
	d.ReadInto(addr, buf)
	for i, b := range buf {
		want := byte(0)
		if addr+uint64(i) == 0x1000 {
			want = 0xaa
		}
		if b != want {
			t.Fatalf("byte %#x = %#x, want %#x", addr+uint64(i), b, want)
		}
	}
	// Dump allocates only the image it returns.
	var img []byte
	allocs = testing.AllocsPerRun(10, func() {
		img = d.Dump(cold, 2*pageSize)
		cold += 4 * pageSize
	})
	if allocs != 1 {
		t.Errorf("cold Dump made %v allocations, want 1 (its result)", allocs)
	}
	if !bytes.Equal(img, make([]byte, 2*pageSize)) {
		t.Error("cold Dump is not all zeros")
	}
	if len(d.store) != pages {
		t.Errorf("cold reads paged in memory: %d pages, want %d", len(d.store), pages)
	}
}

// TestWriteAfterColdRead: a cold read leaves the page absent, and a
// later Write to it pages it in and reads back.
func TestWriteAfterColdRead(t *testing.T) {
	d := mustDRAM(t)
	buf := make([]byte, 64)
	d.ReadInto(0x5000, buf)
	data := []byte("written after a cold read")
	d.Write(0x5010, data)
	if got := d.Read(0x5010, len(data)); !bytes.Equal(got, data) {
		t.Errorf("roundtrip after cold read: got %q", got)
	}
	d.ReadInto(0x5000, buf)
	if !bytes.Equal(buf[:16], make([]byte, 16)) || !bytes.Equal(buf[16:16+len(data)], data) {
		t.Errorf("re-read after write: got %q", buf)
	}
}

func TestCrossPageWrite(t *testing.T) {
	d := mustDRAM(t)
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	// Straddle the 4 KiB internal page boundary.
	d.Write(4096-50, data)
	got := d.Read(4096-50, 100)
	if !bytes.Equal(got, data) {
		t.Error("cross-page write corrupted data")
	}
}

func TestDumpEqualsRead(t *testing.T) {
	d := mustDRAM(t)
	d.Write(0x2000, []byte{1, 2, 3, 4})
	if !bytes.Equal(d.Dump(0x2000, 4), d.Read(0x2000, 4)) {
		t.Error("Dump differs from Read")
	}
}

func TestWriteReadProperty(t *testing.T) {
	d := mustDRAM(t)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr)
		d.Write(a, data)
		return bytes.Equal(d.Read(a, len(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZeroAccessesRate(t *testing.T) {
	d := mustDRAM(t)
	if d.RowHitRate() != 0 {
		t.Error("rate with no accesses should be 0")
	}
}

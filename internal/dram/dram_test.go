package dram

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"meecc/internal/sim"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

func TestReadBackWrittenBytes(t *testing.T) {
	d := New(DefaultConfig())
	data := []byte("integrity tree versions line")
	d.WriteBytes(0x1234, data)
	got := make([]byte, len(data))
	d.ReadBytes(0x1234, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	d := New(DefaultConfig())
	buf := make([]byte, 128)
	d.ReadBytes(0xdeadbe00, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
}

func TestCrossPageReadWrite(t *testing.T) {
	d := New(DefaultConfig())
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := Addr(pageBytes - 100)
	d.WriteBytes(addr, data)
	got := make([]byte, len(data))
	d.ReadBytes(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestLineRoundTripAligned(t *testing.T) {
	d := New(DefaultConfig())
	var line [LineSize]byte
	for i := range line {
		line[i] = byte(i)
	}
	d.WriteLine(0x1000+17, line) // unaligned addr aligns down
	got := d.ReadLine(0x1000)
	if got != line {
		t.Fatal("line roundtrip mismatch")
	}
}

func TestAccessLatencyRowHitVsMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	d := New(cfg)
	rng := testRNG()
	first := d.Access(0, rng, 0x0, false)
	if first != RowMissLat {
		t.Fatalf("first access %d, want row miss %d", first, RowMissLat)
	}
	// Wait past bank busy, same row: hit.
	second := d.Access(first+1000, rng, 64, false)
	if second != RowHitLat {
		t.Fatalf("same-row access %d, want row hit %d", second, RowHitLat)
	}
}

func TestBankContentionStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	d := New(cfg)
	rng := testRNG()
	l1 := d.Access(0, rng, 0, false)
	// Second access to the same bank at the same time must stall behind the
	// first.
	l2 := d.Access(0, rng, 64, false)
	if l2 <= l1 {
		t.Fatalf("contended access %d not slower than %d", l2, l1)
	}
}

func TestDifferentBanksDoNotContend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	d := New(cfg)
	rng := testRNG()
	d.Access(0, rng, 0, false)
	// Next row index maps to the next bank.
	l2 := d.Access(0, rng, Addr(cfg.RowBytes), false)
	if l2 != RowMissLat {
		t.Fatalf("different-bank access %d, want %d", l2, RowMissLat)
	}
}

func TestMeanLatencyNearCalibrationTarget(t *testing.T) {
	d := New(DefaultConfig())
	rng := testRNG()
	var total sim.Cycles
	const n = 4000
	now := sim.Cycles(0)
	for i := 0; i < n; i++ {
		// Far-apart addresses and times: independent accesses.
		addr := Addr(uint64(rng.Uint32()) * 64 % d.Size())
		lat := d.Access(now, rng, addr, false)
		total += lat
		now += lat + 1000
	}
	mean := float64(total) / n
	if mean < 230 || mean > 280 {
		t.Fatalf("mean independent read latency %.1f, want ~250 (230..280)", mean)
	}
}

func TestAccessBeyondCapacityPanics(t *testing.T) {
	d := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	d.Access(0, testRNG(), Addr(d.Size()), false)
}

// Property: any write followed by a read of the same range returns the data,
// regardless of alignment and length.
func TestQuickByteStoreRoundTrip(t *testing.T) {
	d := New(DefaultConfig())
	f := func(addr32 uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 9000 {
			data = data[:9000]
		}
		addr := Addr(addr32)
		d.WriteBytes(addr, data)
		got := make([]byte, len(data))
		d.ReadBytes(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseAllocation(t *testing.T) {
	d := New(DefaultConfig())
	d.WriteBytes(0, []byte{1})
	d.WriteBytes(1<<30, []byte{2})
	if got := d.AllocatedPages(); got != 2 {
		t.Fatalf("allocated pages %d, want 2", got)
	}
}

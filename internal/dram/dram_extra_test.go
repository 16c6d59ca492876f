package dram

import (
	"testing"

	"meecc/internal/sim"
)

func TestClosedPagePolicyFlatLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ClosedPage = true
	cfg.JitterSigma = 0
	d := New(cfg)
	rng := testRNG()
	now := sim.Cycles(0)
	for i := 0; i < 10; i++ {
		lat := d.Access(now, rng, Addr(i*64), false) // same row repeatedly
		if lat != sim.Cycles(cfg.RowMissLat) {
			t.Fatalf("access %d latency %d, want flat %v", i, lat, cfg.RowMissLat)
		}
		now += 10000
	}
	if d.Stats().RowHits != 0 {
		t.Fatal("closed-page policy recorded row hits")
	}
}

func TestRefreshStallsOncePerInterval(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterSigma = 0
	cfg.RefreshInterval = 31200
	cfg.RefreshPenalty = 1400
	d := New(cfg)
	rng := testRNG()
	// Access the same open row repeatedly across several intervals.
	var slowAccesses, total int
	now := sim.Cycles(0)
	d.Access(now, rng, 0, false) // open the row
	for i := 0; i < 100; i++ {
		now += 3000
		lat := d.Access(now, rng, 64, false)
		total++
		if lat > sim.Cycles(cfg.RowHitLat) {
			slowAccesses++
		}
	}
	// 100 accesses over 300k cycles span ~9 refresh intervals.
	if slowAccesses < 5 || slowAccesses > 15 {
		t.Fatalf("%d/%d refresh-delayed accesses, want ~9", slowAccesses, total)
	}
	if d.Stats().Refreshes == 0 {
		t.Fatal("no refreshes counted")
	}
}

func TestRefreshDisabledByDefault(t *testing.T) {
	d := New(DefaultConfig())
	rng := testRNG()
	now := sim.Cycles(0)
	for i := 0; i < 200; i++ {
		now += 5000
		d.Access(now, rng, Addr(i*64), false)
	}
	if d.Stats().Refreshes != 0 {
		t.Fatal("refreshes counted with modeling disabled")
	}
}

// TestBankAndRowMatchesDivision: the shifts and mask find the bank and row
// that dividing by the row size and bank count finds, for every
// power-of-two geometry near the default.
func TestBankAndRowMatchesDivision(t *testing.T) {
	rng := testRNG()
	for _, banks := range []int{1, 2, 16, 64} {
		for _, rowBytes := range []uint64{64, 4096, 8192, 1 << 16} {
			cfg := DefaultConfig()
			cfg.Banks, cfg.RowBytes = banks, rowBytes
			d := New(cfg)
			for i := 0; i < 1000; i++ {
				addr := Addr(rng.Uint64N(cfg.Size))
				rowIdx := uint64(addr) / rowBytes
				bank, row := d.bankAndRow(addr)
				if bank != int(rowIdx%uint64(banks)) || row != int64(rowIdx/uint64(banks)) {
					t.Fatalf("%d banks × %d B rows: %#x maps to bank %d row %d, want %d, %d",
						banks, rowBytes, addr, bank, row, rowIdx%uint64(banks), rowIdx/uint64(banks))
				}
			}
		}
	}
}

// TestNonPowerOfTwoGeometryRejected: a bank count or row size that is not a
// power of two has no shift, so New panics on it and SnapshotFromState
// returns an error for an image that carries one.
func TestNonPowerOfTwoGeometryRejected(t *testing.T) {
	for _, cfg := range []Config{
		func() Config { c := DefaultConfig(); c.Banks = 12; return c }(),
		func() Config { c := DefaultConfig(); c.RowBytes = 6000; return c }(),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %d banks × %d B rows", cfg.Banks, cfg.RowBytes)
				}
			}()
			New(cfg)
		}()
		st := New(DefaultConfig()).Snapshot().ExportState()
		st.Cfg = cfg
		st.OpenRow = make([]int64, cfg.Banks)
		st.BanksBusy = make([]sim.Cycles, cfg.Banks)
		st.RefreshedAt = make([]int64, cfg.Banks)
		if _, err := SnapshotFromState(st); err == nil {
			t.Errorf("SnapshotFromState accepted %d banks × %d B rows", cfg.Banks, cfg.RowBytes)
		}
	}
}

package dram

import (
	"testing"

	"meecc/internal/sim"
)

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
		if _, err := SnapshotFromState(st); err == nil {
			t.Errorf("SnapshotFromState accepted %d banks × %d B rows", cfg.Banks, cfg.RowBytes)
		}
	}
}

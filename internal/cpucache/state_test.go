package cpucache

import (
	"reflect"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
)

// TestStateRoundTrip exports a hierarchy holding clean and dirty lines,
// rebuilds it, and re-exports: the images match, and only sets holding a
// buffer get a block.
func TestStateRoundTrip(t *testing.T) {
	h := newH()
	for i := 0; i < 40; i++ {
		h.Fill(i%4, dram.Addr(0x40000+i*dram.LineSize), line(byte(i)), i%3 == 0)
	}
	h.Flush(0x40000)
	st := h.ExportState()
	dec, err := HierarchyFromState(h.Config(), st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.ExportState(), st) {
		t.Fatal("decoded hierarchy re-exports a different image")
	}
	blocks := 0
	for _, b := range dec.blocks {
		if b.bufs != nil {
			blocks++
		}
	}
	if blocks != len(st.Bufs) {
		t.Fatalf("decoded %d blocks for %d one-line sets", blocks, len(st.Bufs))
	}
}

// TestStateRejectsUnrepresentableCores: the presence masks have one bit per
// core, so an image with more cores than bits must fail to decode instead of
// yielding a machine whose writes and evictions skip the high cores' private
// caches.
func TestStateRejectsUnrepresentableCores(t *testing.T) {
	for _, cores := range []int{0, maxCores + 1} {
		cfg := DefaultConfig(cores)
		st := &State{LLC: cache.New("llc", cfg.LLCSets, cfg.LLCWays, cache.NewLRU()).ExportState()}
		for c := 0; c < cores; c++ {
			st.L1 = append(st.L1, cache.New("l1d", cfg.L1Sets, cfg.L1Ways, cache.NewLRU()).ExportState())
			st.L2 = append(st.L2, cache.New("l2", cfg.L2Sets, cfg.L2Ways, cache.NewLRU()).ExportState())
		}
		if _, err := HierarchyFromState(cfg, st); err == nil {
			t.Errorf("%d-core image decoded without error", cores)
		}
	}
}

package cpucache

import (
	"reflect"
	"slices"
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
	// A set never filled reads as the one shared empty block; set 0 is one.
	empty, blocks := &dec.bufs.Read(0)[0], 0
	for s := 0; s < dec.cfg.LLCSets; s++ {
		if &dec.bufs.Read(s)[0] != empty {
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
		if _, err := HierarchyFromState(cfg, privateStates(cfg)); err == nil {
			t.Errorf("%d-core image decoded without error", cores)
		}
	}
}

// privateStates returns a state with fresh caches of cfg's geometry, built
// with the cache package directly so that cfg may break cpucache's rules.
func privateStates(cfg Config) *State {
	st := &State{LLC: cache.New("llc", cfg.LLCSets, cfg.LLCWays, cache.NewLRU()).ExportState()}
	for c := 0; c < cfg.Cores; c++ {
		st.L1 = append(st.L1, cache.New("l1d", cfg.L1Sets, cfg.L1Ways, cache.NewLRU()).ExportState())
		st.L2 = append(st.L2, cache.New("l2", cfg.L2Sets, cfg.L2Ways, cache.NewLRU()).ExportState())
	}
	return st
}

// TestStateRejectsNonPowerOfTwoSets: set indexes mask the line address, so
// an image whose L1, L2 or LLC set count is not a power of two must fail to
// decode, as New refuses it, instead of yielding a machine that indexes
// past its sets.
func TestStateRejectsNonPowerOfTwoSets(t *testing.T) {
	for _, bad := range []func(*Config){
		func(c *Config) { c.L1Sets = 48 },
		func(c *Config) { c.L2Sets = 1000 },
		func(c *Config) { c.LLCSets = 6 },
	} {
		cfg := DefaultConfig(2)
		bad(&cfg)
		if _, err := HierarchyFromState(cfg, privateStates(cfg)); err == nil {
			t.Errorf("image with L1/L2/LLC sets %d/%d/%d decoded without error", cfg.L1Sets, cfg.L2Sets, cfg.LLCSets)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted L1/L2/LLC sets %d/%d/%d", cfg.L1Sets, cfg.L2Sets, cfg.LLCSets)
				}
			}()
			New(cfg, cache.NewLRU())
		}()
	}
}

// TestStateRejectsBuffersOffValidLines: clflush scans the LLC once and
// takes the line's buffer, so an image must pair every valid LLC line with
// a buffer and hold no buffer for an invalid slot.
func TestStateRejectsBuffersOffValidLines(t *testing.T) {
	h := newH()
	h.Fill(0, 0x40000, line(1), true)
	h.Fill(1, 0x80000, line(2), false)
	st := h.ExportState()
	if _, err := HierarchyFromState(h.Config(), st); err != nil {
		t.Fatal(err)
	}
	missing := *st
	missing.Bufs = st.Bufs[1:]
	if _, err := HierarchyFromState(h.Config(), &missing); err == nil {
		t.Error("valid LLC line without a buffer decoded without error")
	}
	stray := *st
	stray.Bufs = append(slices.Clone(st.Bufs[:1]), LineBufState{Idx: st.Bufs[1].Idx + 1})
	if _, err := HierarchyFromState(h.Config(), &stray); err == nil {
		t.Error("buffer in an invalid LLC slot decoded without error")
	}
}

package mee

import (
	"testing"

	"meecc/internal/cache"
)

// TestStateRejectsUnsplittableSets: the odd/even split masks a line's
// address by half the set count, so an image whose set count is odd, or
// even with a half that is not a power of two, must fail to decode, as New
// refuses it, instead of yielding an engine that indexes past its sets.
func TestStateRejectsUnsplittableSets(t *testing.T) {
	f := newFixture(t)
	geom, crypt := *f.eng.Geometry(), f.eng.crypt
	if _, err := EngineFromState(f.eng.cfg, geom, crypt, f.eng.ExportState()); err != nil {
		t.Fatal(err)
	}
	for _, sets := range []int{127, 96} {
		cfg := DefaultConfig()
		cfg.CacheSets = sets
		st := f.eng.ExportState()
		st.Cache = cache.New("mee", sets, cfg.CacheWays, cfg.Policy).ExportState()
		if _, err := EngineFromState(cfg, geom, crypt, st); err == nil {
			t.Errorf("%d-set image decoded without error", sets)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted %d sets", sets)
				}
			}()
			New(cfg, geom, crypt, f.mem)
		}()
	}
}

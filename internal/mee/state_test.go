package mee

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/sim"
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

// TestStateRoundTripKeepsBuffers: the cache image is the only record of
// which line each buffer holds and whether it is dirty, so an engine
// holding dirty lines must come back from ExportState → EngineFromState
// with every buffer's content and every dirty line, and a fork of each engine
// must run one read/write script, dirty write-backs included, to the same
// data, latencies, hit levels and final image.
func TestStateRoundTripKeepsBuffers(t *testing.T) {
	f := newFixture(t)
	// A 32 KB stride puts every versions line in one odd set and every
	// PD_Tag line in one even set, so the script below evicts the lines
	// these writes dirty.
	stride := func(i int) dram.Addr { return f.dataAddr(uint64(i%40) * 32 << 10) }
	for i := 0; i < 48; i++ {
		if i%3 == 0 {
			f.write(t, stride(i), byte(i))
		} else {
			f.read(t, stride(i))
		}
	}
	dec, err := EngineFromState(f.eng.cfg, *f.eng.Geometry(), f.eng.crypt, f.eng.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	dirty := f.eng.residents(true)
	if len(dirty) == 0 {
		t.Fatal("the engine holds no dirty line")
	}
	if !slices.Equal(dec.bufs, f.eng.bufs) || !slices.Equal(dec.residents(true), dirty) {
		t.Fatal("decoded engine's buffers or dirty lines differ from the original's")
	}

	type result struct {
		data [64]byte
		lat  sim.Cycles
		hit  HitLevel
		err  error
	}
	mem := f.mem.Snapshot()
	run := func(src *Engine) ([]result, *State) {
		e := src.Fork(mem.Fork(), rand.New(rand.NewPCG(3, 4)))
		rng, now := rand.New(rand.NewPCG(5, 6)), f.now
		var out []result
		for i := 0; i < 400; i++ {
			now += 100000
			addr := stride(i + 7)
			var r result
			if i%4 == 0 {
				r.lat, r.hit, r.err = e.WriteData(now, rng, addr, [64]byte{byte(i)})
			} else {
				r.data, r.lat, r.hit, r.err = e.ReadData(now, rng, addr)
			}
			out = append(out, r)
		}
		return out, e.ExportState()
	}
	wantOut, wantSt := run(f.eng)
	gotOut, gotSt := run(dec)
	if !reflect.DeepEqual(gotOut, wantOut) || !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatal("fork of the decoded engine diverged from a fork of the original")
	}
	if wantSt.Stats.Writebacks == 0 {
		t.Fatal("the script wrote nothing back")
	}
}

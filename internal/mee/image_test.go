package mee

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/sim"
	"meecc/internal/wire"
)

// image returns the image e appends.
func image(e *Engine) []byte {
	var w wire.Writer
	e.AppendImage(&w)
	return w.Bytes()
}

// TestStateRejectsUnsplittableSets: the odd/even split masks a line's
// address by half the set count, so an image whose set count is odd, or
// even with a half that is not a power of two, must fail to decode, as New
// refuses it, instead of yielding an engine that indexes past its sets.
func TestStateRejectsUnsplittableSets(t *testing.T) {
	f := newFixture(t)
	geom, crypt := *f.eng.Geometry(), f.eng.crypt
	if _, err := ReadEngine(wire.NewReader(image(f.eng)), f.eng.cfg, geom, crypt); err != nil {
		t.Fatal(err)
	}
	for _, sets := range []int{127, 96} {
		cfg := DefaultConfig()
		cfg.CacheSets = sets
		bad := *f.eng
		bad.cache = cache.New("mee", sets, cfg.CacheWays, cfg.Policy)
		if _, err := ReadEngine(wire.NewReader(image(&bad)), cfg, geom, crypt); err == nil {
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
// holding dirty lines must come back from AppendImage → ReadEngine with
// every buffer's content and every dirty line, and a fork of each engine
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
	dec, err := ReadEngine(wire.NewReader(image(f.eng)), f.eng.cfg, *f.eng.Geometry(), f.eng.crypt)
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
	run := func(src *Engine) ([]result, *Engine) {
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
		return out, e
	}
	wantOut, want := run(f.eng)
	gotOut, got := run(dec)
	if !reflect.DeepEqual(gotOut, wantOut) || !bytes.Equal(image(got), image(want)) {
		t.Fatal("fork of the decoded engine diverged from a fork of the original")
	}
	if want.Stats().Writebacks == 0 {
		t.Fatal("the script wrote nothing back")
	}
}

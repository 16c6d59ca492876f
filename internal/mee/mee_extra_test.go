package mee

import (
	"strings"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/itree"
)

func TestHitLevelStrings(t *testing.T) {
	cases := map[HitLevel]string{
		HitVersions:  "versions-hit",
		HitL0:        "level0-hit",
		HitL1:        "level1-hit",
		HitL2:        "level2-hit",
		HitRoot:      "root-access",
		HitLevel(42): "HitLevel(42)",
	}
	for h, want := range cases {
		if got := h.String(); got != want {
			t.Errorf("%d: %q != %q", int(h), got, want)
		}
	}
}

func TestIntegrityErrorMessage(t *testing.T) {
	e := &IntegrityError{Addr: 0x1234, Kind: itree.KindVersion, What: "embedded MAC mismatch"}
	msg := e.Error()
	for _, frag := range []string{"0x1234", "version", "MAC"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q missing %q", msg, frag)
		}
	}
}

func TestOddSetCountRejected(t *testing.T) {
	f := newFixture(t)
	cfg := DefaultConfig()
	cfg.CacheSets = 127
	defer func() {
		if recover() == nil {
			t.Fatal("odd set count accepted")
		}
	}()
	New(cfg, *f.eng.Geometry(), itree.NewCrypto([16]byte{1}), f.mem)
}

func TestRandomEvictInjectionDegradesHitRate(t *testing.T) {
	measure := func(prob float64) uint64 {
		rngFix := newFixture(t)
		cfg := DefaultConfig()
		cfg.RandomEvictProb = prob
		eng := New(cfg, *rngFix.eng.Geometry(), itree.NewCrypto([16]byte{2}), dram.New(dram.DefaultConfig()))
		now := rngFix.now
		addr := eng.Geometry().DataBase
		// Re-access the same line repeatedly; without injection every
		// access after the first is a versions hit.
		for i := 0; i < 300; i++ {
			now += 100000
			if _, _, _, err := eng.ReadData(now, rngFix.rng, addr); err != nil {
				t.Fatal(err)
			}
		}
		return eng.Stats().HitsAt[HitVersions]
	}
	clean := measure(0)
	noisy := measure(0.5)
	if clean < 295 {
		t.Fatalf("clean hit count %d", clean)
	}
	if noisy >= clean {
		t.Fatalf("random eviction injection had no effect: %d vs %d", noisy, clean)
	}
}

func TestFlushCacheIdempotent(t *testing.T) {
	f := newFixture(t)
	f.write(t, f.dataAddr(0), 0x5A)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng) // second flush: nothing dirty, no panic
	got, _, _ := f.read(t, f.dataAddr(0))
	if got[0] != 0x5A {
		t.Fatal("data lost across double flush")
	}
}

func TestResetStatsClearsEverything(t *testing.T) {
	f := newFixture(t)
	f.read(t, f.dataAddr(0))
	if f.eng.Stats().Reads == 0 {
		t.Fatal("no reads recorded")
	}
	f.eng.ResetStats()
	st := f.eng.Stats()
	if st.Reads != 0 || st.HitsAt[HitRoot] != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	if cs := f.eng.Cache().Stats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("cache stats not reset: %+v", cs)
	}
}

func TestWritesToDistinctLinesShareVersionLine(t *testing.T) {
	// Eight 64 B lines in one 512 B block use distinct counters of the
	// same versions line; each line's data must round-trip independently.
	f := newFixture(t)
	base := f.dataAddr(512 * 20)
	for i := 0; i < 8; i++ {
		f.write(t, base+dram.Addr(i*64), byte(0x10+i))
	}
	for i := 0; i < 8; i++ {
		got, _, _ := f.read(t, base+dram.Addr(i*64))
		if got[0] != byte(0x10+i) {
			t.Fatalf("line %d read %#x", i, got[0])
		}
	}
}

func TestTagTamperOnOneLineDoesNotAffectSiblings(t *testing.T) {
	f := newFixture(t)
	base := f.dataAddr(512 * 30)
	f.write(t, base, 0x01)
	f.write(t, base+64, 0x02)
	f.now += 100000
	f.eng.FlushCache(f.now, f.rng)
	// Corrupt only line 0's ciphertext.
	raw := f.mem.ReadLine(base)
	raw[0] ^= 0xFF
	f.mem.WriteLine(base, raw)
	// Sibling line still verifies.
	got, _, _ := f.read(t, base+64)
	if got[0] != 0x02 {
		t.Fatal("sibling line corrupted")
	}
	// The tampered line is caught.
	f.now += 100000
	if _, _, _, err := f.eng.ReadData(f.now, f.rng, base); err == nil {
		t.Fatal("tamper on line 0 not detected")
	}
}

// TestWriteMarksCacheLinesDirty: a write dirties the versions and PD_Tag
// lines it updates in the MEE cache as well as in their buffers, so every
// resident line's cache dirty bit matches its buffer's, and the cache's
// count of dirty lines it evicted matches the engine's write-backs once
// conflicting reads have evicted what the writes dirtied.
func TestWriteMarksCacheLinesDirty(t *testing.T) {
	f := newFixture(t)
	check := func(when string) {
		t.Helper()
		c := f.eng.Cache()
		for set := 0; set < c.Sets(); set++ {
			for way, l := range c.SetContents(set) {
				nb := &f.eng.bufs[f.eng.bufIdx(set, way)]
				if l.Valid != nb.valid || l.Valid && l.Dirty != nb.dirty {
					t.Fatalf("%s: set %d way %d: cache line valid %v dirty %v, buffer valid %v dirty %v",
						when, set, way, l.Valid, l.Dirty, nb.valid, nb.dirty)
				}
			}
		}
	}
	for i := 0; i < 3; i++ {
		f.write(t, f.dataAddr(uint64(i)*512), byte(i+1))
	}
	check("after the writes")
	// At a 32 KB stride the data lines' versions lines share one odd set
	// and their PD_Tag lines one even set, 64 of each against 8 ways.
	for i := 1; i <= 4000; i++ {
		f.read(t, f.dataAddr(uint64(i%64)*32<<10))
	}
	check("after conflicting reads")
	wb, out := f.eng.Stats().Writebacks, f.eng.Cache().Stats().WritebacksOut
	if wb == 0 || out != wb {
		t.Fatalf("engine wrote back %d lines, MEE cache counted %d dirty evictions", wb, out)
	}
}

package mee

import (
	"math/rand/v2"
	"slices"
	"testing"

	"meecc/internal/dram"
)

// Property: under random reads and writes over 1 MB, one op in three a
// write, every read returns the most recent write to that line
// (read-your-writes through encryption, caching, and writebacks), and so
// does every written line once FlushCache has written everything back. No
// operation leaves a line in the write-back queue. Each row's seed is one on
// which its script fails if a write-back runs inside the walk that evicted
// its line, which can reload a line from stale DRAM, overwrite a newer
// buffer, or refill the slot a loader has just returned; the small caches
// fail on every seed. The random-eviction row also sends dirty lines out
// through the mitigation's evictions and back from the queue.
func TestPropertyReadYourWrites(t *testing.T) {
	for _, tc := range []struct {
		name       string
		sets, ways int
		evictProb  float64
		seed       uint64
	}{
		{"128x8", 128, 8, 0, 21},
		{"8x2", 8, 2, 0, 1},
		{"4x2", 4, 2, 0, 12},
		{"8x2-random-evict", 8, 2, 0.5, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			cfg := DefaultConfig()
			cfg.CacheSets, cfg.CacheWays, cfg.RandomEvictProb = tc.sets, tc.ways, tc.evictProb
			f.eng = New(cfg, *f.eng.Geometry(), f.eng.crypt, f.mem)
			rng := rand.New(rand.NewPCG(tc.seed, 456))
			shadow := map[dram.Addr]byte{}
			for op := 0; op < 3000; op++ {
				addr := f.dataAddr(uint64(rng.IntN(1<<20/64)) * 64)
				if rng.IntN(3) == 0 {
					v := byte(rng.Uint64())
					f.write(t, addr, v)
					shadow[addr] = v
				} else {
					got, _, _ := f.read(t, addr)
					if want, ok := shadow[addr]; ok && got[0] != want {
						t.Fatalf("op %d: line %#x read %#x, want %#x", op, addr, got[0], want)
					}
				}
				if n := len(f.eng.wbq); n != 0 {
					t.Fatalf("op %d left %d lines in the write-back queue", op, n)
				}
			}
			f.now += 100000
			f.eng.FlushCache(f.now, f.rng)
			addrs := make([]dram.Addr, 0, len(shadow))
			for addr := range shadow {
				addrs = append(addrs, addr)
			}
			slices.Sort(addrs)
			for _, addr := range addrs {
				if got, _, _ := f.read(t, addr); got[0] != shadow[addr] {
					t.Fatalf("after FlushCache: line %#x read %#x, want %#x", addr, got[0], shadow[addr])
				}
			}
		})
	}
}

// Property: latency never violates the mode ordering — a versions hit is
// always faster than the same-moment root walk would be, and every access
// falls within sane bounds.
func TestPropertyLatencyBounds(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewPCG(7, 8))
	for op := 0; op < 800; op++ {
		addr := f.dataAddr(uint64(rng.IntN(1<<20)) &^ 63)
		f.now += 50000
		_, lat, hit, err := f.eng.ReadData(f.now, f.rng, addr)
		if err != nil {
			t.Fatal(err)
		}
		lo := []int64{380, 620, 860, 1100, 1340}[hit]
		hi := []int64{620, 900, 1180, 1460, 1900}[hit]
		if int64(lat) < lo || int64(lat) > hi {
			t.Fatalf("op %d: %v latency %d outside [%d,%d]", op, hit, lat, lo, hi)
		}
	}
}

// Property: the MEE cache never exceeds its capacity and never holds the
// same line twice, under arbitrary access patterns.
func TestPropertyCacheCapacityInvariant(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewPCG(9, 10))
	for op := 0; op < 600; op++ {
		addr := f.dataAddr(uint64(rng.IntN(4<<20)) &^ 511)
		f.now += 50000
		if _, _, _, err := f.eng.ReadData(f.now, f.rng, addr); err != nil {
			t.Fatal(err)
		}
		if n := f.eng.Cache().ValidCount(); n > 128*8 {
			t.Fatalf("MEE cache holds %d lines", n)
		}
	}
	// Spot-check a few sets for duplicates.
	for set := 0; set < 16; set++ {
		seen := map[uint64]bool{}
		for _, l := range f.eng.Cache().SetContents(set) {
			if !l.Valid {
				continue
			}
			if seen[uint64(l.Tag)] {
				t.Fatalf("set %d holds tag %d twice", set, l.Tag)
			}
			seen[uint64(l.Tag)] = true
		}
	}
}

// Property: walks are deterministic given identical engine state — two
// engines fed the same operation sequence report identical latencies.
func TestPropertyDeterministicWalks(t *testing.T) {
	run := func() []int64 {
		f := newFixture(t)
		var lats []int64
		opRng := rand.New(rand.NewPCG(33, 44))
		for i := 0; i < 200; i++ {
			f.now += 40000
			addr := f.dataAddr(uint64(opRng.IntN(1<<20)) &^ 63)
			_, lat, _, err := f.eng.ReadData(f.now, f.rng, addr)
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, int64(lat))
		}
		return lats
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

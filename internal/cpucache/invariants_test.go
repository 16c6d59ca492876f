package cpucache

import (
	"math/rand/v2"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
)

// fuzzLines is the address universe of FuzzHierarchyInvariants: four times
// the LLC's capacity on its shrunk geometry, so fills evict.
const fuzzLines = 32

// hierarchyScript returns a deterministic random script of n two-byte ops
// for the seed corpus.
func hierarchyScript(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	b := make([]byte, 2*n)
	for i := range b {
		b[i] = byte(rng.IntN(256))
	}
	return b
}

// checkHierarchy fails t unless h holds the invariants the inclusive LLC
// and the one-scan clflush rely on: every valid L1/L2 line is valid in the
// LLC with that core's presence bit set, every valid LLC line has a valid
// buffer, and no invalid LLC slot has one.
func checkHierarchy(t *testing.T, h *Hierarchy, op int) {
	t.Helper()
	for s := 0; s < h.cfg.LLCSets; s++ {
		for w, l := range h.llc.SetContents(s) {
			if b := h.buf(s, w); l.Valid != (b != nil) {
				t.Fatalf("op %d: LLC set %d way %d: line valid %v, buffer valid %v", op, s, w, l.Valid, b != nil)
			}
		}
	}
	for c := 0; c < h.cfg.Cores; c++ {
		for _, private := range []*cache.Cache{h.l1[c], h.l2[c]} {
			for s := 0; s < private.Sets(); s++ {
				for _, l := range private.SetContents(s) {
					if !l.Valid {
						continue
					}
					set := int(uint64(l.Tag) % uint64(h.cfg.LLCSets))
					way, ok := h.llc.WayOf(set, l.Tag)
					if !ok {
						t.Fatalf("op %d: core %d %s holds line %#x, which the LLC does not", op, c, private.Name(), uint64(l.Tag)*dram.LineSize)
					}
					if b := h.buf(set, way); b == nil || b.cores&(1<<uint(c)) == 0 {
						t.Fatalf("op %d: core %d %s holds line %#x without its presence bit", op, c, private.Name(), uint64(l.Tag)*dram.LineSize)
					}
				}
			}
		}
	}
}

// FuzzHierarchyInvariants drives random reads, writes (each miss followed by
// the Fill the platform would make) and clflushes from 2–4 cores through a
// hierarchy small enough that LLC evictions back-invalidate the private
// caches, and checks the inclusion and buffer invariants after every op.
// Each op is two bytes: the first picks the core and the kind (read, write
// or flush), the second the line and a byte offset within it.
func FuzzHierarchyInvariants(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 1, 1, 2, 1, 0, 2, 1, 3})
	f.Add(uint8(2), []byte{0x40, 5, 0x81, 5, 0x02, 5, 0x41, 37, 0x80, 69})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint8(seed), hierarchyScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, coreSeed uint8, script []byte) {
		cfg := DefaultConfig(2 + int(coreSeed)%3)
		cfg.L1Sets, cfg.L1Ways = 2, 2
		cfg.L2Sets, cfg.L2Ways = 4, 2
		cfg.LLCSets, cfg.LLCWays = 4, 2
		h := New(cfg, cache.NewLRU())
		for i := 0; i+1 < len(script); i += 2 {
			core := int(script[i]>>2) % cfg.Cores
			addr := dram.Addr(int(script[i+1])%fuzzLines*dram.LineSize + int(script[i+1])/fuzzLines)
			switch script[i] % 3 {
			case 0, 1:
				write := script[i]%3 == 1
				if lvl, _ := h.Access(core, addr, write); lvl == Miss {
					h.Fill(core, addr, line(script[i+1]), write)
				}
			case 2:
				h.Flush(addr)
				if h.Resident(addr) {
					t.Fatalf("op %d: line %#x resident after clflush", i/2, addr)
				}
			}
			checkHierarchy(t, h, i/2)
		}
	})
}

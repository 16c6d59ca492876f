package cpucache

import (
	"bytes"
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

// checkHierarchy fails t unless h holds the invariants the inclusive LLC,
// the one-scan clflush and Fill's presence-mask merge rely on: every valid
// L1/L2 line is valid in the LLC with that core's presence bit set, and an
// empty LLC way holds the zero buffer.
func checkHierarchy(t *testing.T, h *Hierarchy, op int) {
	t.Helper()
	for s := 0; s < h.cfg.LLCSets; s++ {
		for w, l := range h.llc.SetContents(s) {
			if b := h.buf(s, w); !l.Valid && *b != (lineBuf{}) {
				t.Fatalf("op %d: LLC set %d way %d is empty but its buffer is not zero: %+v", op, s, w, *b)
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
					if h.buf(set, way).cores&(1<<uint(c)) == 0 {
						t.Fatalf("op %d: core %d %s holds line %#x without its presence bit", op, c, private.Name(), uint64(l.Tag)*dram.LineSize)
					}
				}
			}
		}
	}
}

// frozenImage is a snapshot taken during a fuzz script and the image it
// appended when taken.
type frozenImage struct {
	h   *Hierarchy
	img []byte
}

// FuzzHierarchyInvariants drives random reads, writes (each miss followed by
// the Fill the platform would make), clflushes, snapshots and forks from 2–4
// cores through hierarchies small enough that LLC evictions back-invalidate
// the private caches. Each op is two bytes. The first picks the core (bits
// 3 and up) and the kind: read, write or flush (two values each), or a
// snapshot or fork; the second picks the line and a byte offset within it,
// and its low bit picks fork over snapshot. A snapshot freezes the
// hierarchy the op runs on, which keeps running; a fork runs beside the
// others from the newest snapshot. Ops rotate over the running hierarchies.
// After every op the inclusion and buffer invariants hold on each running
// hierarchy, and each snapshot still exports the image it had when taken,
// so a write that reaches a shared block instead of a copy fails.
func FuzzHierarchyInvariants(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 1, 4, 1, 0, 2, 5, 2})
	f.Add(uint8(2), []byte{0x48, 5, 0x8a, 5, 0x04, 5, 0x49, 37, 0x88, 69})
	f.Add(uint8(1), []byte{2, 3, 0x0a, 4, 6, 0, 2, 3, 6, 1, 3, 4, 0x0b, 3, 4, 3, 6, 1, 2, 5, 0x0c, 4})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(uint8(seed), hierarchyScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, coreSeed uint8, script []byte) {
		cfg := DefaultConfig(2 + int(coreSeed)%3)
		cfg.L1Sets, cfg.L1Ways = 2, 2
		cfg.L2Sets, cfg.L2Ways = 4, 2
		cfg.LLCSets, cfg.LLCWays = 4, 2
		running := []*Hierarchy{New(cfg, cache.NewLRU())}
		var frozen []frozenImage
		for i := 0; i+1 < len(script); i += 2 {
			op := i / 2
			h := running[op%len(running)]
			core := int(script[i]>>3) % cfg.Cores
			addr := dram.Addr(int(script[i+1])%fuzzLines*dram.LineSize + int(script[i+1])/fuzzLines)
			switch kind := script[i] % 7; {
			case kind < 4:
				write := kind >= 2
				if lvl, _ := h.Access(core, addr, write); lvl == Miss {
					h.Fill(core, addr, line(script[i+1]), write)
				}
			case kind < 6:
				h.Flush(addr)
				if h.Resident(addr) {
					t.Fatalf("op %d: line %#x resident after clflush", op, addr)
				}
			case script[i+1]&1 == 0 || len(frozen) == 0:
				s := h.Snapshot()
				frozen = append(frozen, frozenImage{s, image(s)})
				if len(frozen) > 3 {
					frozen = frozen[1:]
				}
			default:
				running = append(running, frozen[len(frozen)-1].h.Fork(nil))
				if len(running) > 3 {
					running = append(running[:1], running[2:]...)
				}
			}
			for _, r := range running {
				checkHierarchy(t, r, op)
			}
			for k, fi := range frozen {
				if !bytes.Equal(image(fi.h), fi.img) {
					t.Fatalf("op %d: snapshot %d of %d no longer appends the image it was taken with", op, k, len(frozen))
				}
			}
		}
	})
}

// Package enclave models the SGX software abstractions the attack runs
// under: virtual address spaces with 4 KB page tables (SGX1 has no hugepage
// support inside enclaves — challenge 3 in Section 3 of the paper), the EPC
// (enclave page cache) frame allocator carving pages out of the protected
// data region, and per-enclave metadata.
package enclave

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"meecc/internal/dram"
)

// VAddr is a virtual address within one process's address space.
type VAddr uint64

// PageBytes is the only page size available to enclaves (4 KB).
const PageBytes = 4096

// PageTable is a single-level map from virtual to physical 4 KB pages —
// sufficient detail for the simulation, which never walks page tables for
// timing (TLB effects are folded into the latency calibration). The version
// counter bumps on every Map (including remaps), so host-side translation
// caches can validate cached entries with a single compare instead of a map
// lookup; it is never part of simulated state.
type PageTable struct {
	pages   map[VAddr]dram.Addr
	version uint64
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{pages: make(map[VAddr]dram.Addr), version: 1}
}

// Map installs a translation; both addresses must be page aligned.
func (pt *PageTable) Map(va VAddr, pa dram.Addr) {
	if va%PageBytes != 0 || pa%PageBytes != 0 {
		panic(fmt.Sprintf("enclave: unaligned mapping %#x -> %#x", va, pa))
	}
	pt.pages[va] = pa
	pt.version++
}

// Version returns the table's mutation counter. It starts at 1 (so callers
// can use 0 as an "invalid" sentinel) and increments on every Map.
func (pt *PageTable) Version() uint64 { return pt.version }

// Translate resolves a virtual address to its physical address.
func (pt *PageTable) Translate(va VAddr) (dram.Addr, bool) {
	base := va &^ (PageBytes - 1)
	pa, ok := pt.pages[base]
	if !ok {
		return 0, false
	}
	return pa + dram.Addr(va-base), true
}

// Clone returns an independent deep copy of the page table.
func (pt *PageTable) Clone() *PageTable {
	n := &PageTable{pages: make(map[VAddr]dram.Addr, len(pt.pages)), version: pt.version}
	for va, pa := range pt.pages {
		n.pages[va] = pa
	}
	return n
}

// AllocMode selects how the EPC allocator hands out physical frames.
type AllocMode int

const (
	// AllocSequential hands out physically consecutive frames — the common
	// case on a freshly booted machine and the assumption under which the
	// paper's 4 KB-stride candidate sets index the MEE cache cleanly.
	AllocSequential AllocMode = iota
	// AllocShuffled hands out frames in a random permutation, modeling a
	// fragmented EPC; reverse engineering then needs the search in
	// Algorithm 1 to do real work.
	AllocShuffled
	// AllocChunked hands out runs of physically contiguous frames (random
	// run lengths of 8–64 pages) with random gaps between runs — the
	// typical state of a real EPC after some uptime, and the source of the
	// smooth eviction-probability curve in Figure 4 of the paper.
	AllocChunked
)

// EPCAllocator carves 4 KB frames out of the protected data region and
// remembers which enclave owns each frame (SGX hardware enforces this via
// the EPCM; we enforce it at access time).
type EPCAllocator struct {
	frames []dram.Addr // hand-out order: boot's order of every frame, then the frames Realloc returned
	booted int         // frames in boot's order
	next   int
	owner  map[dram.Addr]int // frame -> enclave ID
}

// NewEPCAllocator prepares all frames of the region [base, base+size).
func NewEPCAllocator(base dram.Addr, size uint64, mode AllocMode, rng *rand.Rand) *EPCAllocator {
	if base%PageBytes != 0 || size%PageBytes != 0 {
		panic("enclave: EPC region must be page aligned")
	}
	n := int(size / PageBytes)
	a := &EPCAllocator{
		frames: make([]dram.Addr, n),
		booted: n,
		owner:  make(map[dram.Addr]int),
	}
	for i := range a.frames {
		a.frames[i] = base + dram.Addr(i*PageBytes)
	}
	switch mode {
	case AllocShuffled:
		rng.Shuffle(n, func(i, j int) {
			a.frames[i], a.frames[j] = a.frames[j], a.frames[i]
		})
	case AllocChunked:
		// Partition the frame list into runs of 8..64 contiguous frames,
		// then shuffle the runs. Within a run addresses stay sequential.
		var runs [][]dram.Addr
		for i := 0; i < n; {
			l := 8 + rng.IntN(57)
			if i+l > n {
				l = n - i
			}
			runs = append(runs, a.frames[i:i+l])
			i += l
		}
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		out := make([]dram.Addr, 0, n)
		for _, r := range runs {
			out = append(out, r...)
		}
		a.frames = out
	}
	return a
}

// Clone returns an independent copy of the allocator (frame order, cursor,
// and ownership). Determinism note: the frame order was fixed at
// construction, so clones allocate the same frames in the same order as the
// original would have. The clone shares the frame list, as no entry is
// written once the list is built: Realloc only appends, the original past
// the clone's end and the clone, whose copy is clipped, into an array of
// its own.
func (a *EPCAllocator) Clone() *EPCAllocator {
	n := &EPCAllocator{
		frames: slices.Clip(a.frames),
		booted: a.booted,
		next:   a.next,
		owner:  make(map[dram.Addr]int, len(a.owner)),
	}
	for f, id := range a.owner {
		n.owner[f] = id
	}
	return n
}

// Alloc hands the next frame to enclave eid.
func (a *EPCAllocator) Alloc(eid int) (dram.Addr, error) {
	if a.next >= len(a.frames) {
		return 0, fmt.Errorf("enclave: EPC exhausted (%d frames)", len(a.frames))
	}
	f := a.frames[a.next]
	a.next++
	a.owner[f] = eid
	return f, nil
}

// Owner returns the enclave owning the frame containing pa, or -1.
func (a *EPCAllocator) Owner(pa dram.Addr) int {
	if id, ok := a.owner[pa&^(PageBytes-1)]; ok {
		return id
	}
	return -1
}

// Realloc models an EPC paging round trip for the page in frame old: the
// owning enclave keeps the page, but it comes back in a different physical
// frame. The old frame goes to the back of the free list (it is reused only
// after every never-used frame), keeping allocation deterministic.
func (a *EPCAllocator) Realloc(old dram.Addr) (dram.Addr, error) {
	old &^= PageBytes - 1
	eid, ok := a.owner[old]
	if !ok {
		return 0, fmt.Errorf("enclave: Realloc of unowned frame %#x", old)
	}
	fresh, err := a.Alloc(eid)
	if err != nil {
		return 0, err
	}
	delete(a.owner, old)
	a.frames = append(a.frames, old)
	return fresh, nil
}

// Enclave is the metadata for one enclave instance.
type Enclave struct {
	ID    int
	Base  VAddr // start of ELRANGE in the owning process
	Pages int   // number of EPC pages committed
}

// Size returns the enclave's committed byte size.
func (e *Enclave) Size() uint64 { return uint64(e.Pages) * PageBytes }

// Timing constants for the measurement mechanisms compared in Figure 2 of
// the paper (Section 3, challenge 4).
const (
	// OCallMinCycles..OCallMaxCycles bound the cost of leaving the enclave
	// to execute rdtsc via an OCALL.
	OCallMinCycles = 8000
	OCallMaxCycles = 15000
	// TimerReadCycles is the cost of reading the hyperthread timer value
	// from non-enclave memory from inside the enclave (Figure 2(c)).
	TimerReadCycles = 50
	// TimerResolutionCycles is the update period of the timer thread's
	// store loop, i.e. the quantization of the readings.
	TimerResolutionCycles = 35
)

package enclave

import (
	"fmt"
	"slices"
	"sort"

	"meecc/internal/dram"
)

// PTE is one page-table entry in a serialized image.
type PTE struct {
	VA VAddr
	PA dram.Addr
}

// Entries returns the page table's translations sorted by virtual address,
// a deterministic flattening of the underlying map for serialization.
func (pt *PageTable) Entries() []PTE {
	out := make([]PTE, 0, len(pt.pages))
	for va, pa := range pt.pages {
		out = append(out, PTE{VA: va, PA: pa})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VA < out[j].VA })
	return out
}

// PageTableFromEntries rebuilds a page table from serialized entries,
// validating alignment and rejecting duplicate virtual pages and frames
// that do not fit in a memory of memSize bytes.
func PageTableFromEntries(entries []PTE, memSize uint64) (*PageTable, error) {
	pt := NewPageTable()
	for _, e := range entries {
		if e.VA%PageBytes != 0 || e.PA%PageBytes != 0 {
			return nil, fmt.Errorf("enclave: unaligned mapping %#x -> %#x", e.VA, e.PA)
		}
		if memSize < PageBytes || uint64(e.PA) > memSize-PageBytes {
			return nil, fmt.Errorf("enclave: mapping %#x -> %#x past the %#x-byte memory", e.VA, e.PA, memSize)
		}
		if _, dup := pt.pages[e.VA]; dup {
			return nil, fmt.Errorf("enclave: duplicate mapping for %#x", e.VA)
		}
		pt.pages[e.VA] = e.PA
	}
	return pt, nil
}

// OwnerEntry records one frame's owning enclave in a serialized image.
type OwnerEntry struct {
	Frame dram.Addr
	EID   int
}

// EPCState is the serializable image of an EPCAllocator: only what boot
// cannot rebuild. The order boot hands frames out in is the machine seed's
// (NewEPCAllocator draws it), so the image keeps only the frames Realloc
// returned, in the order they rejoined the list, the cursor and the owners.
type EPCState struct {
	Freed  []dram.Addr
	Next   int
	Owners []OwnerEntry // sorted by Frame
}

// ExportState flattens the allocator deterministically.
func (a *EPCAllocator) ExportState() *EPCState {
	st := &EPCState{
		Freed:  slices.Clone(a.frames[a.booted:]),
		Next:   a.next,
		Owners: make([]OwnerEntry, 0, len(a.owner)),
	}
	for f, id := range a.owner {
		st.Owners = append(st.Owners, OwnerEntry{Frame: f, EID: id})
	}
	sort.Slice(st.Owners, func(i, j int) bool { return st.Owners[i].Frame < st.Owners[j].Frame })
	return st
}

// EPCFromState rebuilds an allocator from a serialized image and boot, the
// allocator NewEPCAllocator derives for the EPC at base from the machine's
// seed, whose frame list it takes over. Every freed or owned frame must be
// one that boot's order handed out before the cursor, so an image whose
// order this build no longer derives fails. Each such frame is owned once,
// queued once to be handed out again or neither, so the rebuilt allocator
// never hands out a frame that an enclave owns.
func EPCFromState(st *EPCState, boot *EPCAllocator, base dram.Addr) (*EPCAllocator, error) {
	a := &EPCAllocator{
		frames: append(boot.frames[:boot.booted:boot.booted], st.Freed...),
		booted: boot.booted,
		next:   st.Next,
		owner:  make(map[dram.Addr]int, len(st.Owners)),
	}
	if st.Next < 0 || st.Next > len(a.frames) {
		return nil, fmt.Errorf("enclave: EPC cursor %d out of range (%d frames)", st.Next, len(a.frames))
	}
	// free[i]: boot's order handed out the frame i pages past base before
	// the cursor, and no owner or queued frame has taken it.
	free := make([]bool, a.booted)
	for _, f := range a.frames[:min(a.next, a.booted)] {
		free[(f-base)/PageBytes] = true
	}
	// take reports whether f is free and, if claim is set, takes it.
	take := func(f dram.Addr, claim bool) bool {
		i := uint64(f-base) / PageBytes
		if i >= uint64(a.booted) || !free[i] || f%PageBytes != 0 {
			return false
		}
		free[i] = !claim
		return true
	}
	for j, f := range st.Freed {
		// One the cursor has passed was handed out again; one still to be
		// handed out takes its frame.
		if !take(f, a.booted+j >= a.next) {
			return nil, fmt.Errorf("enclave: freed frame %#x was not handed out before the cursor, or is queued twice", f)
		}
	}
	for _, o := range st.Owners {
		if !take(o.Frame, true) {
			return nil, fmt.Errorf("enclave: owned frame %#x was not handed out before the cursor, or is owned twice or queued", o.Frame)
		}
		a.owner[o.Frame] = o.EID
	}
	return a, nil
}

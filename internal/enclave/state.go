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

// EPCState is the serializable image of an EPCAllocator. Frame order is the
// allocator's actual (possibly shuffled) hand-out order, so a rebuilt
// allocator allocates the same frames in the same sequence.
type EPCState struct {
	Frames []dram.Addr
	Next   int
	Owners []OwnerEntry // sorted by Frame
}

// ExportState flattens the allocator deterministically. Frames aliases the
// allocator's frame list, whose entries never change once it is built
// (Realloc only appends past them); callers must treat it as read-only.
func (a *EPCAllocator) ExportState() *EPCState {
	st := &EPCState{
		Frames: slices.Clip(a.frames),
		Next:   a.next,
		Owners: make([]OwnerEntry, 0, len(a.owner)),
	}
	for f, id := range a.owner {
		st.Owners = append(st.Owners, OwnerEntry{Frame: f, EID: id})
	}
	sort.Slice(st.Owners, func(i, j int) bool { return st.Owners[i].Frame < st.Owners[j].Frame })
	return st
}

// EPCFromState rebuilds an allocator of the EPC [base, base+size) from a
// serialized image, rejecting a listed or owned frame that is not a page of
// that range. The allocator shares st.Frames, as a clone shares its
// original's list.
func EPCFromState(st *EPCState, base dram.Addr, size uint64) (*EPCAllocator, error) {
	if st.Next < 0 || st.Next > len(st.Frames) {
		return nil, fmt.Errorf("enclave: EPC cursor %d out of range (%d frames)", st.Next, len(st.Frames))
	}
	inEPC := func(f dram.Addr) error {
		if f < base || uint64(f-base) >= size || f%PageBytes != 0 {
			return fmt.Errorf("enclave: frame %#x is no page of the EPC [%#x, %#x)", f, base, uint64(base)+size)
		}
		return nil
	}
	for _, f := range st.Frames {
		if err := inEPC(f); err != nil {
			return nil, err
		}
	}
	a := &EPCAllocator{
		frames: slices.Clip(st.Frames),
		next:   st.Next,
		owner:  make(map[dram.Addr]int, len(st.Owners)),
	}
	for _, o := range st.Owners {
		if err := inEPC(o.Frame); err != nil {
			return nil, err
		}
		if _, dup := a.owner[o.Frame]; dup {
			return nil, fmt.Errorf("enclave: duplicate owner entry for %#x", o.Frame)
		}
		a.owner[o.Frame] = o.EID
	}
	return a, nil
}

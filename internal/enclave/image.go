package enclave

import (
	"fmt"
	"slices"

	"meecc/internal/dram"
	"meecc/internal/wire"
)

// AppendImage appends the page table's image to w: its translations,
// counted, each a virtual page and the frame it maps to, in ascending
// virtual-address order.
func (pt *PageTable) AppendImage(w *wire.Writer) {
	vas := make([]VAddr, 0, len(pt.pages))
	for va := range pt.pages {
		vas = append(vas, va)
	}
	slices.Sort(vas)
	w.U64(uint64(len(vas)))
	for _, va := range vas {
		w.U64(uint64(va))
		w.U64(uint64(pt.pages[va]))
	}
}

// ReadPageTable reads the image AppendImage appends and rebuilds the page
// table. An unaligned mapping, a frame that does not fit in a memory of
// memSize bytes and a virtual page mapped twice are errors.
func ReadPageTable(r *wire.Reader, memSize uint64) (*PageTable, error) {
	n := r.Count(16)
	pt := &PageTable{pages: make(map[VAddr]dram.Addr, n), version: 1}
	for i := 0; i < n && r.Err() == nil; i++ {
		va, pa := VAddr(r.U64()), dram.Addr(r.U64())
		if va%PageBytes != 0 || pa%PageBytes != 0 {
			return nil, fmt.Errorf("enclave: unaligned mapping %#x -> %#x", va, pa)
		}
		if memSize < PageBytes || uint64(pa) > memSize-PageBytes {
			return nil, fmt.Errorf("enclave: mapping %#x -> %#x past the %#x-byte memory", va, pa, memSize)
		}
		if _, dup := pt.pages[va]; dup {
			return nil, fmt.Errorf("enclave: duplicate mapping for %#x", va)
		}
		pt.pages[va] = pa
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return pt, nil
}

// AppendImage appends what boot cannot rebuild of the allocator to w: the
// frames Realloc returned, counted, in the order they rejoined the list;
// the cursor; and the owners, counted, each a frame and its enclave's ID,
// in ascending frame order. The order boot hands frames out in is the
// machine seed's (NewEPCAllocator draws it), so the image leaves it out.
func (a *EPCAllocator) AppendImage(w *wire.Writer) {
	freed := a.frames[a.booted:]
	w.U64(uint64(len(freed)))
	for _, f := range freed {
		w.U64(uint64(f))
	}
	w.I64(int64(a.next))
	frames := make([]dram.Addr, 0, len(a.owner))
	for f := range a.owner {
		frames = append(frames, f)
	}
	slices.Sort(frames)
	w.U64(uint64(len(frames)))
	for _, f := range frames {
		w.U64(uint64(f))
		w.I64(int64(a.owner[f]))
	}
}

// ReadEPC reads the image AppendImage appends and rebuilds the allocator
// over boot, the allocator NewEPCAllocator derives for the EPC at base from
// the machine's seed, whose frame list it takes over. Every freed or owned
// frame must be one that boot's order handed out before the cursor, so an
// image whose order this build no longer derives fails. Each such frame is
// owned once, queued once to be handed out again or neither, so the
// rebuilt allocator never hands out a frame that an enclave owns.
func ReadEPC(r *wire.Reader, boot *EPCAllocator, base dram.Addr) (*EPCAllocator, error) {
	nf := r.Count(8)
	a := &EPCAllocator{
		frames: slices.Grow(boot.frames[:boot.booted:boot.booted], nf),
		booted: boot.booted,
	}
	for i := 0; i < nf; i++ {
		a.frames = append(a.frames, dram.Addr(r.U64()))
	}
	a.next = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if a.next < 0 || a.next > len(a.frames) {
		return nil, fmt.Errorf("enclave: EPC cursor %d out of range (%d frames)", a.next, len(a.frames))
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
	for j, f := range a.frames[a.booted:] {
		// One the cursor has passed was handed out again; one still to be
		// handed out takes its frame.
		if !take(f, a.booted+j >= a.next) {
			return nil, fmt.Errorf("enclave: freed frame %#x was not handed out before the cursor, or is queued twice", f)
		}
	}
	no := r.Count(16)
	a.owner = make(map[dram.Addr]int, no)
	for i := 0; i < no && r.Err() == nil; i++ {
		f, eid := dram.Addr(r.U64()), int(r.I64())
		if !take(f, true) {
			return nil, fmt.Errorf("enclave: owned frame %#x was not handed out before the cursor, or is owned twice or queued", f)
		}
		a.owner[f] = eid
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

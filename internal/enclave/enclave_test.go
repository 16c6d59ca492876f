package enclave

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"meecc/internal/dram"
)

func TestPageTableMapTranslate(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x10000, 0x5000)
	cases := []struct {
		va   VAddr
		want dram.Addr
	}{
		{0x10000, 0x5000},
		{0x10001, 0x5001},
		{0x10FFF, 0x5FFF},
	}
	for _, c := range cases {
		pa, ok := pt.Translate(c.va)
		if !ok || pa != c.want {
			t.Errorf("Translate(%#x) = %#x,%v want %#x", c.va, pa, ok, c.want)
		}
	}
	if _, ok := pt.Translate(0x11000); ok {
		t.Error("adjacent unmapped page translated")
	}
}

func TestPageTableRejectsUnaligned(t *testing.T) {
	pt := NewPageTable()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Map accepted")
		}
	}()
	pt.Map(0x10001, 0x5000)
}

func TestQuickPageTableOffsetPreserved(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0, 0x40000)
	f := func(off uint16) bool {
		va := VAddr(off) % PageBytes
		pa, ok := pt.Translate(va)
		return ok && pa == 0x40000+dram.Addr(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialAllocatorIsContiguous(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := NewEPCAllocator(0x1000000, 64*PageBytes, AllocSequential, rng)
	prev := dram.Addr(0)
	for i := 0; i < 64; i++ {
		f, err := a.Alloc(7)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && f != prev+PageBytes {
			t.Fatalf("frame %d not contiguous: %#x after %#x", i, f, prev)
		}
		prev = f
		if a.Owner(f) != 7 {
			t.Fatalf("owner of %#x = %d", f, a.Owner(f))
		}
	}
	if _, err := a.Alloc(7); err == nil {
		t.Fatal("exhausted allocator still allocates")
	}
}

func TestShuffledAllocatorPermutesAllFrames(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 256
	a := NewEPCAllocator(0, n*PageBytes, AllocShuffled, rng)
	seen := map[dram.Addr]bool{}
	sequentialRun := 0
	var prev dram.Addr
	for i := 0; i < n; i++ {
		f, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if f%PageBytes != 0 || uint64(f) >= n*PageBytes {
			t.Fatalf("frame %#x out of range", f)
		}
		if seen[f] {
			t.Fatalf("frame %#x handed out twice", f)
		}
		seen[f] = true
		if i > 0 && f == prev+PageBytes {
			sequentialRun++
		}
		prev = f
	}
	if len(seen) != n {
		t.Fatalf("only %d distinct frames", len(seen))
	}
	if sequentialRun > n/4 {
		t.Fatalf("shuffled allocator too sequential (%d adjacent pairs)", sequentialRun)
	}
}

func TestChunkedAllocatorHasRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 512
	a := NewEPCAllocator(0, n*PageBytes, AllocChunked, rng)
	seen := map[dram.Addr]bool{}
	adjacent := 0
	var prev dram.Addr
	for i := 0; i < n; i++ {
		f, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		if seen[f] {
			t.Fatalf("frame %#x handed out twice", f)
		}
		seen[f] = true
		if i > 0 && f == prev+PageBytes {
			adjacent++
		}
		prev = f
	}
	// Runs of 8..64 frames: most transitions stay adjacent, but not all.
	if adjacent < n/2 {
		t.Fatalf("chunked allocation barely contiguous (%d adjacent)", adjacent)
	}
	if adjacent == n-1 {
		t.Fatal("chunked allocation fully sequential (no fragmentation)")
	}
}

// TestCloneReallocLeavesOthersIntact: clones share the frame list, so a
// Realloc, which appends the returned frame to one allocator's list, must
// leave the hand-out order of the original and of a sibling clone as it
// was, whether a clone or the original reallocates.
func TestCloneReallocLeavesOthersIntact(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	orig := NewEPCAllocator(0, 16*PageBytes, AllocShuffled, rng)
	var owned []dram.Addr
	for i := 0; i < 4; i++ {
		f, err := orig.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, f)
	}
	// A first Realloc moves the original's list to a larger array, leaving
	// it room to append in place.
	if _, err := orig.Realloc(owned[0]); err != nil {
		t.Fatal(err)
	}
	all := []*EPCAllocator{orig, orig.Clone(), orig.Clone()}
	names := []string{"the original", "clone a", "clone b"}
	order := func(a *EPCAllocator) []dram.Addr { return slices.Clone(a.frames[a.next:]) }
	want := [][]dram.Addr{order(all[0]), order(all[1]), order(all[2])}
	for step, i := range []int{1, 0, 2} {
		if _, err := all[i].Realloc(owned[step+1]); err != nil {
			t.Fatal(err)
		}
		// The reallocating side hands out its next frame and queues the
		// returned one last.
		want[i] = append(want[i][1:], owned[step+1])
		for j, a := range all {
			if got := order(a); !slices.Equal(got, want[j]) {
				t.Fatalf("after a Realloc on %s, %s hands out %#x, want %#x", names[i], names[j], got, want[j])
			}
		}
	}
}

func TestOwnerOfUnallocatedFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := NewEPCAllocator(0, 8*PageBytes, AllocSequential, rng)
	if got := a.Owner(0); got != -1 {
		t.Fatalf("owner of unallocated frame = %d", got)
	}
	f, _ := a.Alloc(3)
	// Any address within the frame maps to the owner.
	if got := a.Owner(f + 123); got != 3 {
		t.Fatalf("owner via offset = %d", got)
	}
}

func TestAllocatorRejectsUnaligned(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned EPC region accepted")
		}
	}()
	NewEPCAllocator(17, 8*PageBytes, AllocSequential, rand.New(rand.NewPCG(1, 1)))
}

func TestEnclaveSize(t *testing.T) {
	e := &Enclave{ID: 1, Base: 0x8000_0000, Pages: 4}
	if e.Size() != 4*PageBytes {
		t.Fatalf("size %d", e.Size())
	}
}

// TestEPCStateRoundTrip rebuilds an allocator whose cursor has passed the
// end of boot's order, so one frame Realloc returned was handed out again
// and one is still queued, from its image and a freshly derived boot
// allocator: the rebuilt one keeps the image and hands out what the
// original does. Damaged images, each breaking one of EPCFromState's
// rules, are rejected.
func TestEPCStateRoundTrip(t *testing.T) {
	const base = 0x100000
	boot := func() *EPCAllocator {
		return NewEPCAllocator(base, 16*PageBytes, AllocShuffled, rand.New(rand.NewPCG(11, 12)))
	}
	a := boot()
	var owned []dram.Addr
	for i := 0; i < 6; i++ {
		f, err := a.Alloc(1)
		if err != nil {
			t.Fatal(err)
		}
		owned = append(owned, f)
	}
	for _, f := range owned[:2] {
		if _, err := a.Realloc(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 9; i++ { // the last of these hands owned[0] out again
		if _, err := a.Alloc(2); err != nil {
			t.Fatal(err)
		}
	}
	st := a.ExportState()
	if want := []dram.Addr{owned[0], owned[1]}; st.Next != 17 || !slices.Equal(st.Freed, want) {
		t.Fatalf("image has cursor %d and freed frames %#x; want 17 and %#x", st.Next, st.Freed, want)
	}
	b, err := EPCFromState(st, boot(), base)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("rebuilt allocator exports %+v, want %+v", got, st)
	}
	for i := 0; ; i++ {
		want, wantErr := a.Alloc(3)
		got, err := b.Alloc(3)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("allocation %d: rebuilt allocator hands out %#x (err %v), original %#x (err %v)", i, got, err, want, wantErr)
		}
		if err != nil {
			break
		}
	}

	for name, damage := range map[string]func(st *EPCState){
		"freed frame outside the EPC":  func(st *EPCState) { st.Freed[0] = base - PageBytes },
		"freed frame not page aligned": func(st *EPCState) { st.Freed[0] += 8 },
		"queued frame owned":           func(st *EPCState) { st.Owners = append(st.Owners, OwnerEntry{Frame: owned[1], EID: 1}) },
		"frame queued twice":           func(st *EPCState) { st.Freed = append(st.Freed, owned[1]) },
		"cursor past the list":         func(st *EPCState) { st.Next = 19 },
		"negative cursor":              func(st *EPCState) { st.Next = -1 },
	} {
		dam := &EPCState{Freed: slices.Clone(st.Freed), Next: st.Next, Owners: slices.Clone(st.Owners)}
		damage(dam)
		if _, err := EPCFromState(dam, boot(), base); err == nil {
			t.Errorf("%s: image rebuilt without error", name)
		}
	}
}

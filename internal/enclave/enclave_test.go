package enclave

import (
	"math/rand/v2"
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
	if pt.Mapped() != 1 {
		t.Errorf("mapped=%d", pt.Mapped())
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
	if a.Free() != 0 {
		t.Fatalf("free=%d", a.Free())
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

func TestEnclaveContains(t *testing.T) {
	e := &Enclave{ID: 1, Base: 0x8000_0000, Pages: 4}
	if e.Size() != 4*PageBytes {
		t.Fatalf("size %d", e.Size())
	}
	if !e.Contains(0x8000_0000) || !e.Contains(0x8000_0000+VAddr(e.Size())-1) {
		t.Fatal("enclave does not contain its range")
	}
	if e.Contains(0x8000_0000-1) || e.Contains(0x8000_0000+VAddr(e.Size())) {
		t.Fatal("enclave contains addresses outside its range")
	}
}

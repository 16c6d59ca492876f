package enclave

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"meecc/internal/dram"
	"meecc/internal/wire"
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
// allocator: the rebuilt one appends the same image and hands out what the
// original does. Damaged images, each breaking one of ReadEPC's rules, are
// rejected.
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
	// The image: two freed frames, the cursor, then the owners.
	img := image(a.AppendImage)
	word := func(at int) uint64 { return binary.LittleEndian.Uint64(img[at:]) }
	const next, owners = 8 + 2*8, 8 + 2*8 + 8
	if word(0) != 2 || word(8) != uint64(owned[0]) || word(16) != uint64(owned[1]) || word(next) != 17 {
		t.Fatalf("image opens %x; want freed frames %#x and cursor 17", img[:owners], owned[:2])
	}
	b, err := ReadEPC(wire.NewReader(img), boot(), base)
	if err != nil {
		t.Fatal(err)
	}
	if got := image(b.AppendImage); !bytes.Equal(got, img) {
		t.Fatalf("rebuilt allocator appends %x, want %x", got, img)
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

	put64 := func(b []byte, at int, v uint64) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
	entry := func(vs ...uint64) []byte {
		var w wire.Writer
		for _, v := range vs {
			w.U64(v)
		}
		return w.Bytes()
	}
	for name, damage := range map[string]func(b []byte) []byte{
		"freed frame outside the EPC":  func(b []byte) []byte { return put64(b, 8, base-PageBytes) },
		"freed frame not page aligned": func(b []byte) []byte { return put64(b, 8, uint64(owned[0])+8) },
		"queued frame owned": func(b []byte) []byte {
			b = put64(b, owners, word(owners)+1)
			return append(b, entry(uint64(owned[1]), 1)...)
		},
		"frame queued twice": func(b []byte) []byte {
			return slices.Concat(put64(b, 0, 3)[:next], entry(uint64(owned[1])), b[next:])
		},
		"cursor past the list": func(b []byte) []byte { return put64(b, next, 19) },
		"negative cursor":      func(b []byte) []byte { return put64(b, next, 1<<64-1) },
	} {
		if _, err := ReadEPC(wire.NewReader(damage(bytes.Clone(img))), boot(), base); err == nil {
			t.Errorf("%s: image rebuilt without error", name)
		}
	}
}

// image returns what an append method appends.
func image(appendImage func(*wire.Writer)) []byte {
	var w wire.Writer
	appendImage(&w)
	return w.Bytes()
}

// TestPageTableImageRoundTrip: a page table reads back from its image to
// one that translates alike and appends the same image, and an image with
// an unaligned mapping, a frame past the memory or a virtual page mapped
// twice fails to read.
func TestPageTableImageRoundTrip(t *testing.T) {
	const memSize = 1 << 20
	pt := NewPageTable()
	pt.Map(0x3000, 0x5000)
	pt.Map(0x1000, 0x7000)
	pt.Map(0x2000, memSize-PageBytes)
	img := image(pt.AppendImage)
	got, err := ReadPageTable(wire.NewReader(img), memSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(got.AppendImage), img) || !reflect.DeepEqual(got.pages, pt.pages) {
		t.Fatalf("read page table maps %v, want %v", got.pages, pt.pages)
	}
	// Entries sit in virtual-address order: 0x1000, 0x2000, 0x3000.
	for name, patch := range map[string][2]uint64{
		"unaligned frame":     {8 + 8, 0x7008},
		"frame past memory":   {8 + 16 + 8, memSize},
		"virtual page repeat": {8 + 32, 0x2000},
	} {
		bad := bytes.Clone(img)
		binary.LittleEndian.PutUint64(bad[patch[0]:], patch[1])
		if _, err := ReadPageTable(wire.NewReader(bad), memSize); err == nil {
			t.Errorf("%s: image read without error", name)
		}
	}
}

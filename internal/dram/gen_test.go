package dram

import "testing"

// TestWriteGenRule pins the rule the MEE's memos rely on: a page's write
// generation moves with every write to it, and only with a write. Every
// WriteBytes bumps each page it touches, a cross-page write included; a
// view that copies a page it shares with a snapshot carries the generation
// over, then bumps it; reads, Snapshot and Fork leave it alone; and a page
// never materialized reads 0 without being allocated.
func TestWriteGenRule(t *testing.T) {
	d := New(DefaultConfig())
	const a, b = Addr(3 * pageBytes), Addr(4 * pageBytes)
	if g := d.WriteGen(a); g != 0 || d.AllocatedPages() != 0 {
		t.Fatalf("absent page: generation %d, %d pages allocated; want 0, 0", g, d.AllocatedPages())
	}
	d.WriteLine(a, [LineSize]byte{1})
	d.WriteLine(a+LineSize, [LineSize]byte{2})
	if g := d.WriteGen(a); g != 2 {
		t.Fatalf("two writes: generation %d, want 2", g)
	}
	// A write across the boundary bumps both pages once.
	d.WriteBytes(b-8, make([]byte, 16))
	if ga, gb := d.WriteGen(a), d.WriteGen(b); ga != 3 || gb != 1 {
		t.Fatalf("cross-page write: generations %d, %d, want 3, 1", ga, gb)
	}
	d.ReadLine(a)
	d.ReadBytes(b-8, make([]byte, 16))
	d.ReadLine(b + pageBytes) // materializes a zero page
	if ga, gb, gc := d.WriteGen(a), d.WriteGen(b), d.WriteGen(b+pageBytes); ga != 3 || gb != 1 || gc != 0 {
		t.Fatalf("after reads: generations %d, %d, %d, want 3, 1, 0", ga, gb, gc)
	}

	s := d.Snapshot()
	f := s.Fork()
	if d.WriteGen(a) != 3 || f.WriteGen(a) != 3 {
		t.Fatalf("Snapshot and Fork moved the generation: parent %d, fork %d, want 3", d.WriteGen(a), f.WriteGen(a))
	}
	// Both sides copy the shared page on their first write to it.
	d.WriteLine(a, [LineSize]byte{4})
	f.WriteLine(a, [LineSize]byte{5})
	f.WriteLine(a, [LineSize]byte{6})
	if gd, gf, gs := d.WriteGen(a), f.WriteGen(a), s.Fork().WriteGen(a); gd != 4 || gf != 5 || gs != 3 {
		t.Fatalf("after copy-on-write: parent %d, fork %d, snapshot %d, want 4, 5, 3", gd, gf, gs)
	}

	far := Addr(DefaultConfig().Size - pageBytes)
	before := f.AllocatedPages()
	if g := f.WriteGen(far); g != 0 || f.AllocatedPages() != before {
		t.Fatalf("absent page: generation %d, allocated %d → %d; want 0 and no allocation", g, before, f.AllocatedPages())
	}
}

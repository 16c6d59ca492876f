package dram

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"meecc/internal/wire"
)

// image returns the image s appends.
func image(s *Snapshot) []byte {
	var w wire.Writer
	s.AppendImage(&w)
	return w.Bytes()
}

// TestImageRoundTrip: a memory with a page of zeros, a page with one
// nonzero line and a page with two reads back from its image to one that
// holds the same bytes and appends the same image, listing only the
// nonzero lines. Each damaged image, breaking one rule ReadSnapshot holds
// the pages and banks to, fails to read.
func TestImageRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	d.WriteBytes(0x1000, make([]byte, 8))               // materialized, all zero
	d.WriteBytes(0x5040, []byte{7})                     // line 1 of page 5
	d.WriteBytes(0x400000+LineSize*63, []byte{0, 0, 9}) // last line of page 1024
	d.WriteBytes(0x400000, []byte{1})
	img := image(d.Snapshot())
	banks := 8 + 8*cfg.Banks + 8 + 8*cfg.Banks
	if want := banks + 8 + 3*pageWire + 3*LineSize; len(img) != want {
		t.Fatalf("image of %d bytes, want %d: three pages, three nonzero lines", len(img), want)
	}
	s, err := ReadSnapshot(wire.NewReader(img), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(s), img) {
		t.Fatal("read snapshot appends a different image")
	}
	got, want := make([]byte, 1<<23), make([]byte, 1<<23)
	s.Fork().ReadBytes(0, got)
	d.ReadBytes(0, want)
	if !bytes.Equal(got, want) {
		t.Fatal("read snapshot holds different bytes")
	}

	pages := banks + 8 // the first page record
	put64 := func(b []byte, at int, v uint64) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
	for name, damage := range map[string]func(b []byte) []byte{
		"bank count":          func(b []byte) []byte { return put64(b, 8+8*cfg.Banks, uint64(cfg.Banks-1)) },
		"page beyond memory":  func(b []byte) []byte { return put64(b, pages, cfg.Size/pageBytes) },
		"page out of order":   func(b []byte) []byte { return put64(b, pages+pageWire, 0) },
		"page repeats":        func(b []byte) []byte { return put64(b, pages+pageWire, 1) },
		"listed line of zero": func(b []byte) []byte { clear(b[pages+2*pageWire : pages+2*pageWire+LineSize]); return b },
		"line missing": func(b []byte) []byte {
			return slices.Concat(b[:pages+2*pageWire], b[pages+2*pageWire+LineSize:])
		},
	} {
		if _, err := ReadSnapshot(wire.NewReader(damage(bytes.Clone(img))), cfg); err == nil {
			t.Errorf("%s: damaged image read without error", name)
		}
	}
}

// TestReadSnapshotChecksBanksBeforeSizing: a config whose bank count the
// image does not carry fails to read without sizing the bank table by it,
// both from a whole image and from one cut short inside its bank state.
func TestReadSnapshotChecksBanksBeforeSizing(t *testing.T) {
	cfg := DefaultConfig()
	img := image(New(cfg).Snapshot())
	cfg.Banks = 1 << 40
	for _, n := range []int{len(img), 0, 4, 8, 8 + 8*DefaultConfig().Banks, 8 + 8*DefaultConfig().Banks + 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(wire.NewReader(img[:n]), cfg)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte image read under %d banks", n, cfg.Banks)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
			t.Fatalf("%d-byte image: reading allocated %d bytes before the bank check", n, alloc)
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// TestSparseWords: SparseWords appends a vector's nonzero words, SparseMap
// those of a vector kept as a map in the same bytes, and reading them back
// restores the vector. An index beyond the vector or out of order, and a
// zero word, fail the read.
func TestSparseWords(t *testing.T) {
	v := []uint64{0, 3, 0, 0, 9, 0}
	var w, want, fromMap Writer
	w.SparseWords(v)
	want.U64(2)
	want.U32(1)
	want.U64(3)
	want.U32(4)
	want.U64(9)
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatalf("SparseWords(%v) appends %x, want %x", v, w.Bytes(), want.Bytes())
	}
	fromMap.SparseMap(map[uint64]uint64{4: 9, 1: 3, 5: 0})
	if !bytes.Equal(fromMap.Bytes(), want.Bytes()) {
		t.Fatalf("SparseMap appends %x, want %x", fromMap.Bytes(), want.Bytes())
	}
	got := make([]uint64, len(v))
	r := NewReader(w.Bytes())
	r.SparseWords(len(got), func(i int, x uint64) { got[i] = x })
	if r.Err() != nil || r.Remaining() != 0 || !slices.Equal(got, v) {
		t.Fatalf("read back %v (err %v, %d bytes left), want %v", got, r.Err(), r.Remaining(), v)
	}

	for name, words := range map[string][][2]uint64{
		"index beyond the vector": {{1, 3}, {6, 9}},
		"index out of order":      {{4, 9}, {1, 3}},
		"index repeats":           {{1, 3}, {1, 9}},
		"zero word":               {{1, 0}},
	} {
		var bad Writer
		bad.U64(uint64(len(words)))
		for _, x := range words {
			bad.U32(uint32(x[0]))
			bad.U64(x[1])
		}
		r := NewReader(bad.Bytes())
		r.SparseWords(len(v), func(int, uint64) {})
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: read gives %v, want ErrCorrupt", name, r.Err())
		}
	}
}

// TestSizerCountsWhatAWriterAppends: a sizer's Len after any sequence of
// appends is the length a Writer reaches on the same sequence, and it keeps
// no bytes.
func TestSizerCountsWhatAWriterAppends(t *testing.T) {
	write := func(w *Writer) {
		w.U8(1)
		w.Bool(true)
		w.U32(2)
		w.U64(3)
		w.I64(-4)
		w.Raw([]byte("raw"))
		w.Blob([]byte("blob"))
		w.String("string")
		w.U64s([]uint64{5, 6})
		w.I64s([]int64{-7})
		w.SparseWords([]uint64{0, 8})
		w.SparseMap(map[uint64]uint64{2: 9})
	}
	var w Writer
	write(&w)
	s := NewSizer()
	write(s)
	s.Grow(1 << 20)
	if s.Len() != w.Len() || s.Bytes() != nil {
		t.Fatalf("sizer counted %d bytes and kept %d; the writer appended %d", s.Len(), len(s.Bytes()), w.Len())
	}
}

// Package wire is the binary form every persisted image in meecc shares:
// little-endian fixed-width integers, length-prefixed byte strings and
// strings, and sparse word vectors. Each component appends its own image
// to a Writer and reads it back from a Reader, so a layout is written down
// once, beside the structure it images. A Writer from NewSizer counts the
// bytes instead of keeping them, so an encoder sizes its buffer by running
// the same append code once more, with no second description of the
// layout to drift.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrCorrupt tags any decode failure caused by damaged bytes: truncation,
// bit flips, a checksum mismatch, or an image that breaks a rule of the
// structure it describes. Callers treat it as "re-derive the state", never
// as fatal.
var ErrCorrupt = errors.New("wire: corrupt data")

// maxStringLen bounds decoded string lengths so that a corrupted length
// prefix cannot drive a giant allocation.
const maxStringLen = 1 << 16

// wordWire is one sparse word on the wire: u32 index, u64 value.
const wordWire = 4 + 8

// Writer appends an image. All integers are little-endian fixed-width;
// variable-size fields carry an explicit length prefix. The zero value is
// ready to use.
type Writer struct {
	buf []byte
	// sizing makes the writer count what it is given instead of keeping it
	// (NewSizer); n is the count.
	sizing bool
	n      int
}

// NewSizer returns a Writer that keeps no bytes and only counts them: its
// Len after an append is the size of what was appended.
func NewSizer() *Writer { return &Writer{sizing: true} }

// Len returns how many bytes the writer holds, or for a sizer has counted.
func (w *Writer) Len() int {
	if w.sizing {
		return w.n
	}
	return len(w.buf)
}

// Bytes returns the accumulated bytes; nil for a sizer.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow makes room for n more bytes, so writing them does not reallocate.
func (w *Writer) Grow(n int) {
	if !w.sizing && cap(w.buf)-len(w.buf) < n {
		// Not slices.Grow: its append of a make allocates twice under -race.
		buf := make([]byte, len(w.buf), len(w.buf)+n)
		copy(buf, w.buf)
		w.buf = buf
	}
}

func (w *Writer) U8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

func (w *Writer) U32(v uint32) {
	if w.sizing {
		w.n += 4
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

func (w *Writer) U64(v uint64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Raw appends bytes with no length prefix; the reader must know the size.
func (w *Writer) Raw(b []byte) {
	if w.sizing {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.Raw(b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// U64s appends a length-prefixed slice of words.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// I64s appends a length-prefixed slice of signed words.
func (w *Writer) I64s(vs []int64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.I64(v)
	}
}

// SparseWords appends the nonzero words of v: their count, then each one's
// index (u32) and value (u64), indexes ascending. Cache eviction counters,
// the MEE init bitmap and the platform's general-frame bitmap travel so.
func (w *Writer) SparseWords(v []uint64) {
	at := w.Len()
	w.U64(0) // the count, filled in below
	n := 0
	for i, x := range v {
		if x != 0 {
			w.U32(uint32(i))
			w.U64(x)
			n++
		}
	}
	if !w.sizing {
		binary.LittleEndian.PutUint64(w.buf[at:], uint64(n))
	}
}

// SparseMap appends a word vector kept as a map from index to word as
// SparseWords appends one kept as a slice.
func (w *Writer) SparseMap(m map[uint64]uint64) {
	idx := make([]uint64, 0, len(m))
	for i, x := range m {
		if x != 0 {
			idx = append(idx, i)
		}
	}
	slices.Sort(idx)
	w.U64(uint64(len(idx)))
	for _, i := range idx {
		w.U32(uint32(i))
		w.U64(m[i])
	}
}

// Reader consumes an image with sticky-error semantics: the first failed
// read latches the error, every later read returns a zero value, and Err
// surfaces what went wrong. Every length prefix is validated against the
// remaining bytes before any allocation, so corrupted or truncated input
// produces ErrCorrupt — never a panic or an outsized allocation.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an image for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the latched decode error, nil if all reads succeeded so far.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many unread bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

// take returns the next n bytes, or nil after latching ErrCorrupt when
// fewer remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.Remaining() < n {
		r.fail("need %d bytes, %d remain", n, r.Remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads a u64 and rejects values that do not fit a non-negative int.
func (r *Reader) Int() int {
	v := r.U64()
	if r.err == nil && v > uint64(int(^uint(0)>>1)) {
		r.fail("value %d overflows int", v)
	}
	return int(v)
}

// Raw reads exactly n bytes (no length prefix). The returned slice aliases
// the image.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Blob reads a length-prefixed byte string; the result aliases the image.
func (r *Reader) Blob() []byte {
	n := r.Int()
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

func (r *Reader) String() string {
	n := int(r.U32())
	if r.err == nil && n > maxStringLen {
		r.fail("string length %d exceeds limit", n)
	}
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// Count reads a length prefix for elemSize-byte elements, bounding it by the
// remaining bytes so a corrupted count cannot drive allocation.
func (r *Reader) Count(elemSize int) int {
	n := r.Int()
	if r.err != nil {
		return 0
	}
	// Divide rather than multiply: n*elemSize can overflow int.
	if n > r.Remaining()/elemSize {
		r.fail("count %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// U64s reads a length-prefixed slice of words.
func (r *Reader) U64s() []uint64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// I64s reads a length-prefixed slice of signed words.
func (r *Reader) I64s() []int64 {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.I64()
	}
	return out
}

// SparseWords reads what Writer.SparseWords appends for an n-word vector,
// calling set with each word's index and value in order. An index out of
// order or not below n, or a zero word, latches ErrCorrupt and ends the
// read, so a vector that reads back appends the same bytes again.
func (r *Reader) SparseWords(n int, set func(i int, v uint64)) {
	last := -1
	for k, j := r.Count(wordWire), 0; j < k && r.err == nil; j++ {
		i, v := int(r.U32()), r.U64()
		switch {
		case r.err != nil:
		case i <= last || i >= n:
			r.fail("sparse word index %d out of order or range (%d words)", i, n)
		case v == 0:
			r.fail("sparse word %d is zero", i)
		default:
			set(i, v)
			last = i
		}
	}
}

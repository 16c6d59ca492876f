// Package snapstore serializes platform snapshots into a versioned binary
// wire format and keeps them in a content-addressed on-disk store with
// atomic writes, size-bounded LRU eviction, and corruption detection. It is
// the persistence substrate under core's warm-state cache and the serve
// experiment service: warm calibration state survives the process, so a
// repeated study boots from disk instead of re-running Algorithm 1.
package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrCorrupt tags any decode failure caused by damaged bytes — truncation,
// bit flips, or a checksum mismatch. Callers treat it as "re-derive the
// state", never as fatal.
var ErrCorrupt = errors.New("snapstore: corrupt blob")

const (
	// magic opens every sealed blob.
	magic = "MEECSNP\x00"
	// Version is the wire-format version; bump on any layout change.
	Version = 7
	// maxStringLen bounds decoded string/name lengths so a corrupted length
	// prefix cannot drive a giant allocation before the checksum would have
	// caught it.
	maxStringLen = 1 << 16
	// minSealedLen is the size of the smallest possible sealed blob: magic,
	// version, empty kind, empty payload, checksum trailer.
	minSealedLen = len(magic) + 4 + 4 + 8 + sha256.Size
)

// Writer builds a wire payload. All integers are little-endian fixed-width;
// variable-size fields carry an explicit length prefix. The zero value is
// ready to use; NewSealWriter starts one that frames its payload as a sealed
// blob in the same buffer.
type Writer struct {
	buf []byte
	// payloadAt is the offset of a sealed blob's payload, just past the
	// header NewSealWriter wrote; 0 for a plain payload writer.
	payloadAt int
}

// Bytes returns the accumulated bytes: the payload, preceded by the seal
// header for a writer from NewSealWriter.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow makes room for n more bytes, so writing them does not reallocate. On
// a writer from NewSealWriter it also reserves the checksum trailer Seal
// appends.
func (w *Writer) Grow(n int) {
	if w.payloadAt > 0 {
		n += sha256.Size
	}
	if cap(w.buf)-len(w.buf) < n {
		// Not slices.Grow: its append of a make allocates twice under -race.
		buf := make([]byte, len(w.buf), len(w.buf)+n)
		copy(buf, w.buf)
		w.buf = buf
	}
}

func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int64)  { w.U64(uint64(v)) }

// Raw appends bytes with no length prefix; the reader must know the size.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Blob appends a length-prefixed byte string.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.Raw(b)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
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

// Reader consumes a wire payload with sticky-error semantics: the first
// failed read latches the error, every later read returns a zero value, and
// Err surfaces what went wrong. Every length prefix is validated against
// the remaining payload before any allocation, so corrupted or truncated
// input produces ErrCorrupt — never a panic or an outsized allocation.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a payload for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the latched decode error, nil if all reads succeeded so far.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many unread payload bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

// take returns the next n payload bytes, or nil after latching ErrCorrupt
// when fewer remain.
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
// the payload.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Blob reads a length-prefixed byte string; the result aliases the payload.
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
// remaining payload so a corrupted count cannot drive allocation.
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

// Seal frames a payload for storage: magic, format version, a kind label
// distinguishing blob families (platform snapshots vs. warm channel state),
// the length-prefixed payload, and a SHA-256 trailer over everything before
// it. Unseal rejects any blob whose trailer does not match.
func Seal(kind string, payload []byte) []byte {
	w := NewSealWriter(kind)
	w.Grow(len(payload))
	w.Raw(payload)
	return w.Seal()
}

// NewSealWriter returns a Writer whose buffer opens with the header of a
// sealed blob of the given kind, its payload length left as a placeholder.
// Everything written to it after that is the payload; Seal then completes
// the blob in place, so encoding straight into it skips Seal(kind, payload)'s
// copy of the whole payload. The bytes are exactly Seal's.
func NewSealWriter(kind string) *Writer {
	w := &Writer{buf: make([]byte, 0, len(magic)+4+4+len(kind)+8)}
	w.Raw([]byte(magic))
	w.U32(Version)
	w.String(kind)
	w.U64(0) // payload length, filled in by Seal
	w.payloadAt = len(w.buf)
	return w
}

// Seal completes the blob a NewSealWriter writer frames: it fills in the
// payload length, appends the SHA-256 trailer and returns the sealed blob,
// which shares the writer's buffer. Write nothing to w afterwards.
func (w *Writer) Seal() []byte {
	binary.LittleEndian.PutUint64(w.buf[w.payloadAt-8:], uint64(len(w.buf)-w.payloadAt))
	sum := sha256.Sum256(w.buf)
	w.buf = append(w.buf, sum[:]...)
	return w.buf
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on every
// platform the simulator targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the per-frame framing cost: u32 length + u32 CRC-32C.
const frameOverhead = 8

// AppendFrame appends one length-framed, CRC-protected record to dst and
// returns the extended slice. The layout is u32 payload length, payload
// bytes, u32 CRC-32C of the payload — small enough to write in a single
// syscall, so an append-only log built from frames tears at most its final
// record on a crash. Decode with NextFrame.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// NextFrame splits the first frame off data, returning its payload (aliasing
// data) and the remaining bytes. Truncated framing, a length that overruns
// the buffer, and a CRC mismatch all come back as ErrCorrupt: for an
// append-only log that is the signal to stop replaying — everything before
// this frame is intact, everything from it on is a torn tail.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameOverhead {
		return nil, nil, fmt.Errorf("%w: %d bytes is too short for a frame", ErrCorrupt, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data)-frameOverhead < n {
		return nil, nil, fmt.Errorf("%w: frame claims %d payload bytes, %d remain", ErrCorrupt, n, len(data)-frameOverhead)
	}
	payload = data[4 : 4+n]
	want := binary.LittleEndian.Uint32(data[4+n:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return payload, data[frameOverhead+n:], nil
}

// Unseal validates a sealed blob's framing and checksum and returns its
// payload (aliasing blob). Kind mismatches, version mismatches, truncation,
// and bit flips all come back as errors; checksum and length damage wraps
// ErrCorrupt.
func Unseal(kind string, blob []byte) ([]byte, error) {
	if len(blob) < minSealedLen {
		return nil, fmt.Errorf("%w: %d bytes is too short to be a sealed blob", ErrCorrupt, len(blob))
	}
	body, trailer := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	sum := sha256.Sum256(body)
	if [sha256.Size]byte(trailer) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := NewReader(body)
	if string(r.Raw(len(magic))) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := r.U32(); v != Version {
		return nil, fmt.Errorf("snapstore: unsupported format version %d (want %d)", v, Version)
	}
	if k := r.String(); k != kind {
		return nil, fmt.Errorf("snapstore: blob kind %q, want %q", k, kind)
	}
	payload := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return payload, nil
}

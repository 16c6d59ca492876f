// Package snapstore seals images into versioned, checksummed blobs and
// keeps them in a content-addressed on-disk store with atomic writes,
// size-bounded LRU eviction, and corruption detection. It is the
// persistence substrate under core's warm-state cache and the serve
// experiment service: warm calibration state survives the process, so a
// repeated study boots from disk instead of re-running Algorithm 1. The
// images themselves are their components' (package wire): a platform
// snapshot's is platform.Snapshot.AppendImage's.
package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"meecc/internal/platform"
	"meecc/internal/wire"
)

// Blob kind labels; Seal/Unseal reject a blob presented as the wrong kind.
const (
	KindSnapshot = "platform-snapshot"
	KindWarm     = "warm-channel-state"
)

const (
	// magic opens every sealed blob.
	magic = "MEECSNP\x00"
	// Version is the wire-format version; bump on any layout change.
	Version = 7
	// minSealedLen is the size of the smallest possible sealed blob: magic,
	// version, empty kind, empty payload, checksum trailer.
	minSealedLen = len(magic) + 4 + 4 + 8 + sha256.Size
)

// Encode seals the payload write appends as a blob of the given kind:
// magic, format version, the kind label distinguishing blob families
// (platform snapshots vs. warm channel state), the length-prefixed payload,
// and a SHA-256 trailer over everything before it. It runs write twice:
// first on a wire.NewSizer, which counts the payload's bytes, then on the
// blob's one buffer, grown once to hold all of it. write must append the
// same bytes both times.
func Encode(kind string, write func(*wire.Writer) error) ([]byte, error) {
	size := wire.NewSizer()
	if err := write(size); err != nil {
		return nil, err
	}
	var w wire.Writer
	w.Grow(len(magic) + 4 + 4 + len(kind) + 8 + size.Len() + sha256.Size)
	w.Raw([]byte(magic))
	w.U32(Version)
	w.String(kind)
	w.U64(uint64(size.Len()))
	at := w.Len()
	if err := write(&w); err != nil {
		return nil, err
	}
	if n := w.Len() - at; n != size.Len() {
		return nil, fmt.Errorf("snapstore: %s payload of %d bytes, sized at %d", kind, n, size.Len())
	}
	sum := sha256.Sum256(w.Bytes())
	return append(w.Bytes(), sum[:]...), nil
}

// Seal frames a payload as a blob of the given kind, as Encode does the
// payload it writes. Unseal rejects any blob whose trailer does not match.
func Seal(kind string, payload []byte) []byte {
	blob, _ := Encode(kind, func(w *wire.Writer) error {
		w.Raw(payload)
		return nil
	})
	return blob
}

// EncodeSnapshot seals a platform snapshot's image as a KindSnapshot blob.
// The image carries only what differs from a freshly built machine: the
// cache sets that hold a line or a window of their own, the nonzero words
// of sparse counters and bitmaps, and each materialized DRAM page's nonzero
// lines.
func EncodeSnapshot(s *platform.Snapshot) ([]byte, error) {
	return Encode(KindSnapshot, s.AppendImage)
}

// DecodeSnapshot reverses EncodeSnapshot, validating framing, checksum, and
// every structural invariant (platform.ReadSnapshot) before handing back a
// forkable snapshot.
func DecodeSnapshot(blob []byte) (*platform.Snapshot, error) {
	payload, err := Unseal(KindSnapshot, blob)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(payload)
	s, err := platform.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", wire.ErrCorrupt, r.Remaining())
	}
	return s, nil
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
// the buffer, and a CRC mismatch all come back as wire.ErrCorrupt: for an
// append-only log that is the signal to stop replaying — everything before
// this frame is intact, everything from it on is a torn tail.
func NextFrame(data []byte) (payload, rest []byte, err error) {
	if len(data) < frameOverhead {
		return nil, nil, fmt.Errorf("%w: %d bytes is too short for a frame", wire.ErrCorrupt, len(data))
	}
	n := int(binary.LittleEndian.Uint32(data))
	if len(data)-frameOverhead < n {
		return nil, nil, fmt.Errorf("%w: frame claims %d payload bytes, %d remain", wire.ErrCorrupt, n, len(data)-frameOverhead)
	}
	payload = data[4 : 4+n]
	want := binary.LittleEndian.Uint32(data[4+n:])
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, nil, fmt.Errorf("%w: frame CRC mismatch", wire.ErrCorrupt)
	}
	return payload, data[frameOverhead+n:], nil
}

// Unseal validates a sealed blob's framing and checksum and returns its
// payload (aliasing blob). Kind mismatches, version mismatches, truncation,
// and bit flips all come back as errors; checksum and length damage wraps
// wire.ErrCorrupt.
func Unseal(kind string, blob []byte) ([]byte, error) {
	if len(blob) < minSealedLen {
		return nil, fmt.Errorf("%w: %d bytes is too short to be a sealed blob", wire.ErrCorrupt, len(blob))
	}
	body, trailer := blob[:len(blob)-sha256.Size], blob[len(blob)-sha256.Size:]
	sum := sha256.Sum256(body)
	if [sha256.Size]byte(trailer) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", wire.ErrCorrupt)
	}
	r := wire.NewReader(body)
	if string(r.Raw(len(magic))) != magic {
		return nil, fmt.Errorf("%w: bad magic", wire.ErrCorrupt)
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
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrCorrupt, r.Remaining())
	}
	return payload, nil
}

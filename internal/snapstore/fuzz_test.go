package snapstore_test

import (
	"bytes"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/snapstore"
)

// FuzzSnapshotCodec feeds mutated bytes to the snapshot decoder twice: as a
// blob, and as the payload of a blob sealed here. A mutated blob almost
// never passes the checksum trailer, so the second pass is what reaches the
// payload decoder behind it. The invariants: decoding never panics, damaged
// bytes come back as errors, and anything that does decode is
// self-consistent — re-encoding it reproduces the same image, so a
// "successful" decode can never be a silently wrong machine.
func FuzzSnapshotCodec(f *testing.F) {
	snap, _, _ := buildSnapshot(f, 5)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		f.Fatal(err)
	}
	// A shuffled EPC: decode derives its frame order from the seed.
	cfg := platform.DefaultConfig(5)
	cfg.EPCMode = enclave.AllocShuffled
	shuffled, _, _ := warmSnapshot(f, cfg)
	shuffledBlob, err := snapstore.EncodeSnapshot(shuffled)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(payload)
	f.Add([]byte{})
	f.Add([]byte("MEECSNP\x00garbage"))
	f.Add(shuffledBlob)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, snapstore.Seal(snapstore.KindSnapshot, data))
	})
}

// checkDecode decodes blob and, if that succeeds, checks that
// decode/encode/decode is a fixed point.
func checkDecode(t *testing.T, blob []byte) {
	t.Helper()
	dec, err := snapstore.DecodeSnapshot(blob)
	if err != nil {
		return // rejected, as damaged input should be
	}
	blob2, err := snapstore.EncodeSnapshot(dec)
	if err != nil {
		t.Fatalf("decoded snapshot failed to re-encode: %v", err)
	}
	dec2, err := snapstore.DecodeSnapshot(blob2)
	if err != nil {
		t.Fatalf("re-encoded snapshot failed to decode: %v", err)
	}
	blob3, err := snapstore.EncodeSnapshot(dec2)
	if err != nil {
		t.Fatalf("decoded snapshot failed to re-encode: %v", err)
	}
	if !bytes.Equal(blob2, blob3) {
		t.Fatal("decode/encode/decode is not a fixed point")
	}
}

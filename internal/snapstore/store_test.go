package snapstore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meecc/internal/snapstore"
	"meecc/internal/wire"
)

func TestStorePutGetRoundTrip(t *testing.T) {
	s, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := snapstore.Seal(snapstore.KindWarm, []byte("payload"))
	key := snapstore.Key("cfg", "seed=1", "recipe")
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("stored blob differs")
	}
	if _, err := s.Get(snapstore.Key("other")); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("missing key: got %v, want ErrNotFound", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("deleted key: got %v, want ErrNotFound", err)
	}
}

// TestOpenDropsOtherVersions: a store opened over blobs of another format
// version, which no decoder reads, deletes them and keeps the current ones.
func TestOpenDropsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	s, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := snapstore.Seal(snapstore.KindWarm, []byte("payload"))
	old := bytes.Clone(cur)
	binary.LittleEndian.PutUint32(old[len("MEECSNP\x00"):], snapstore.Version-1)
	sum := sha256.Sum256(old[:len(old)-sha256.Size])
	copy(old[len(old)-sha256.Size:], sum[:])
	kCur, kOld := snapstore.Key("current"), snapstore.Key("older")
	for k, blob := range map[string][]byte{kCur: cur, kOld: old} {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
	}
	if s, err = snapstore.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("reopened store holds %d blobs, want 1", s.Len())
	}
	if got, err := s.Get(kCur); err != nil || !bytes.Equal(got, cur) {
		t.Fatalf("current blob: err %v, equal %t", err, bytes.Equal(got, cur))
	}
	if _, err := s.Get(kOld); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("version-%d blob: got %v, want ErrNotFound", snapstore.Version-1, err)
	}
}

func TestStoreKeyDelimiting(t *testing.T) {
	if snapstore.Key("ab", "c") == snapstore.Key("a", "bc") {
		t.Fatal("part boundaries must be keyed")
	}
	if snapstore.Key("a") != snapstore.Key("a") {
		t.Fatal("key derivation must be stable")
	}
}

func TestStoreRejectsMalformedKey(t *testing.T) {
	s, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("../escape", []byte("x")); err == nil {
		t.Fatal("path-traversal key accepted")
	}
	if _, err := s.Get("zz"); err == nil || errors.Is(err, snapstore.ErrNotFound) {
		t.Fatal("short key must be rejected as malformed, not missing")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	dir := t.TempDir()
	// Bound: room for roughly two of the three blobs.
	blob := snapstore.Seal(snapstore.KindWarm, bytes.Repeat([]byte("x"), 400))
	s, err := snapstore.Open(dir, int64(2*len(blob)+10))
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := snapstore.Key("1"), snapstore.Key("2"), snapstore.Key("3")
	if err := s.Put(k1, blob); err != nil {
		t.Fatal(err)
	}
	// Make k1 clearly oldest even on coarse-mtime filesystems.
	old := time.Now().Add(-time.Hour)
	os.Chtimes(filepath.Join(dir, k1+".snap"), old, old)
	if err := s.Put(k2, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k3, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k1); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("oldest blob should have been evicted, got %v", err)
	}
	for _, k := range []string{k2, k3} {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("recent blob %s evicted: %v", k, err)
		}
	}
}

func TestStoreCorruptionDetectedOnLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := snapstore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := snapstore.Key("torn")
	if err := s.Put(key, []byte("torn")); err != nil { // far below any valid seal
		t.Fatal(err)
	}
	if _, err := s.Get(key); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("torn blob: got %v, want ErrCorrupt", err)
	}
	// The store self-heals: the torn file is gone.
	if _, err := s.Get(key); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("torn blob should have been dropped, got %v", err)
	}
	// Full-length blobs with flipped bits are caught by Unseal.
	blob := snapstore.Seal(snapstore.KindWarm, []byte("payload"))
	blob[len(blob)/2] ^= 1
	if err := s.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapstore.Unseal(snapstore.KindWarm, got); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("bit-flipped blob: got %v, want ErrCorrupt", err)
	}
}

// TestStoreTouch: Touch freshens a stored blob's LRU position without
// reading it, so the size bound evicts an older blob first, and it reports
// ErrNotFound once the blob is gone.
func TestStoreTouch(t *testing.T) {
	dir := t.TempDir()
	blob := snapstore.Seal(snapstore.KindWarm, bytes.Repeat([]byte("x"), 400))
	s, err := snapstore.Open(dir, int64(2*len(blob)+10))
	if err != nil {
		t.Fatal(err)
	}
	k1, k2, k3 := snapstore.Key("1"), snapstore.Key("2"), snapstore.Key("3")
	if err := s.Touch(k1); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("absent key: got %v, want ErrNotFound", err)
	}
	if err := s.Touch("zz"); err == nil || errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("malformed key: got %v, want a malformed-key error", err)
	}
	for _, k := range []string{k1, k2} {
		if err := s.Put(k, blob); err != nil {
			t.Fatal(err)
		}
	}
	// k1 is the older blob until Touch freshens it.
	for i, k := range []string{k1, k2} {
		old := time.Now().Add(time.Duration(i-2) * time.Hour)
		os.Chtimes(filepath.Join(dir, k+".snap"), old, old)
	}
	if err := s.Touch(k1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k3, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k2); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("k2 should have been evicted, got %v", err)
	}
	if _, err := s.Get(k1); err != nil {
		t.Fatalf("touched blob evicted: %v", err)
	}
	if err := s.Touch(k2); !errors.Is(err, snapstore.ErrNotFound) {
		t.Fatalf("evicted key: got %v, want ErrNotFound", err)
	}
}

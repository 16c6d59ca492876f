package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// TestWarmStateDiskRoundTrip is the warm-tier determinism proof: a warm
// state decoded from its sealed blob runs transmissions DeepEqual to the
// in-memory original's, for several transmit configs off one warm phase.
func TestWarmStateDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	base := DefaultChannelConfig(4)
	ws, err := WarmChannel(base)
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	blob, err := ws.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := DecodeWarmState(blob)
	if err != nil {
		t.Fatalf("DecodeWarmState: %v", err)
	}
	for _, tc := range []struct {
		window sim.Cycles
		bits   []byte
	}{
		{15000, AlternatingBits(16)},
		{7500, PatternBits("110", 16)},
	} {
		cfg := base
		cfg.Window = tc.window
		cfg.Bits = tc.bits
		mem, memErr := ws.Run(cfg)
		disk, diskErr := dec.Run(cfg)
		if (memErr == nil) != (diskErr == nil) {
			t.Fatalf("window %d: mem err %v, disk err %v", tc.window, memErr, diskErr)
		}
		if !reflect.DeepEqual(mem, disk) {
			t.Errorf("window %d: decoded warm state diverged from in-memory state", tc.window)
		}
	}
	// Damage is rejected, not misdecoded.
	blob[len(blob)/2] ^= 1
	if _, err := DecodeWarmState(blob); err == nil {
		t.Fatal("bit-flipped warm blob decoded without error")
	}
	// Incompatible configs are still rejected after the round trip.
	cfg := base
	cfg.Options.Seed++
	if _, err := dec.Run(cfg); err == nil {
		t.Fatal("decoded warm state accepted an incompatible config")
	}
}

// TestWarmCacheSpillSingleflight pins the spill/re-warm race: while an
// evicted entry's disk spill is still in flight, a miss on the same key must
// adopt the in-flight entry — not recompute the warm phase (the entry is
// gone from the memory tier and not yet in the disk tier).
func TestWarmCacheSpillSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	c.testSpillDelay = func() {
		// Only the first spill (A's) parks; later spills pass through.
		first := false
		once.Do(func() { first = true; close(entered) })
		if first {
			<-release
		}
	}

	cfgA, cfgB := DefaultChannelConfig(5), DefaultChannelConfig(6)
	cfgA.Bits = AlternatingBits(4)
	cfgB.Bits = AlternatingBits(4)

	wsA, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Evicts A; its spill parks in testSpillDelay before touching the
		// store, then B's own warm phase runs.
		_, err := c.Warm(cfgB)
		done <- err
	}()
	<-entered

	// A is in neither tier right now. Without the in-flight index this
	// recomputes the warm phase; with it, Warm hands back the same entry.
	wsA2, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if wsA2 != wsA {
		t.Error("re-warm during in-flight spill did not adopt the evicted entry")
	}
	if st := c.Stats(); st.Computes != 1 || st.DiskLoads != 0 {
		t.Errorf("during spill: %+v, want 1 compute and 0 disk loads", st)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Computes != 2 || st.DiskLoads != 0 {
		t.Errorf("after release: %+v, want 2 computes and 0 disk loads", st)
	}
}

// TestWarmCacheDiskTier exercises the spill/fault-in path: with capacity 1
// and a store attached, warming a second key evicts the first to disk, and
// re-warming the first is served from disk — no recompute — with results
// equal to the originals. A state faulted in from disk is not spilled again
// when evicted, unless its blob has left the store since; a damaged blob,
// and one of an older format version, is recomputed and rewritten.
func TestWarmCacheDiskTier(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)

	cfgA, cfgB := DefaultChannelConfig(5), DefaultChannelConfig(6)
	cfgA.Bits = AlternatingBits(8)
	cfgB.Bits = AlternatingBits(8)

	wsA, err := c.Warm(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	refA, err := wsA.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Warm(cfgB); err != nil { // evicts A, spilling it
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskSpills != 1 {
		t.Fatalf("after eviction: %+v, want 1 spill", st)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d blobs, want 1", store.Len())
	}

	wsA2, err := c.Warm(cfgA) // evicts B, faults A back from disk
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Computes != 2 || st.DiskLoads != 1 {
		t.Fatalf("after fault-in: %+v, want 2 computes and 1 disk load", st)
	}
	gotA, err := wsA2.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refA, gotA) {
		t.Fatal("disk-tier warm state diverged from original")
	}

	want := func(when string, spills, computes, loads int64) {
		t.Helper()
		if st := c.Stats(); st != (WarmCacheStats{Computes: computes, DiskLoads: loads, DiskSpills: spills}) {
			t.Fatalf("%s: %+v, want %d spills, %d computes and %d disk loads", when, st, spills, computes, loads)
		}
	}
	warm := func(cfg ChannelConfig) {
		t.Helper()
		if _, err := c.Warm(cfg); err != nil {
			t.Fatal(err)
		}
	}
	// A came from the store, so evicting it only freshens its blob. B was
	// spilled when A evicted it, and faults in.
	warm(cfgB)
	want("after evicting the faulted-in A", 2, 2, 2)

	// A blob the store has dropped since the fault-in is spilled again.
	keyCfg := cfgA
	keyCfg.applyDefaults()
	keyA := diskKey(warmKey(keyCfg))
	blobA, err := store.Get(keyA)
	if err != nil {
		t.Fatal(err)
	}
	warm(cfgA) // evicts B, faults A in
	if err := store.Delete(keyA); err != nil {
		t.Fatal(err)
	}
	warm(cfgB) // evicts A, faults B in
	want("after evicting A with its blob deleted", 3, 2, 4)
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, blobA) {
		t.Fatalf("A's blob was not spilled again (err %v)", err)
	}

	// A damaged blob fails the fault-in; A is recomputed and its eviction
	// rewrites the blob.
	damaged := bytes.Clone(blobA)
	damaged[len(damaged)/2] ^= 1
	if err := store.Put(keyA, damaged); err != nil {
		t.Fatal(err)
	}
	warm(cfgA) // evicts B, recomputes A
	want("after recomputing the damaged A", 3, 3, 4)
	warm(cfgB) // evicts A, faults B in
	want("after evicting the recomputed A", 4, 3, 5)
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, blobA) {
		t.Fatalf("A's damaged blob was not rewritten (err %v)", err)
	}

	// A blob of the previous format version, sealed with a valid trailer,
	// is not misread: Unseal rejects its version, A is recomputed, and its
	// eviction rewrites the blob in the current version.
	old := bytes.Clone(blobA)
	binary.LittleEndian.PutUint32(old[len("MEECSNP\x00"):], snapstore.Version-1)
	sum := sha256.Sum256(old[:len(old)-sha256.Size])
	copy(old[len(old)-sha256.Size:], sum[:])
	if _, err := snapstore.Unseal(snapstore.KindWarm, old); err == nil || errors.Is(err, snapstore.ErrCorrupt) {
		t.Fatalf("version-%d blob unsealed with %v, want a version error", snapstore.Version-1, err)
	}
	if err := store.Put(keyA, old); err != nil {
		t.Fatal(err)
	}
	wsA3, err := c.Warm(cfgA) // evicts B, recomputes A
	if err != nil {
		t.Fatal(err)
	}
	want("after recomputing the older-version A", 4, 4, 5)
	gotA, err = wsA3.Run(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refA, gotA) {
		t.Fatal("warm state recomputed over an older-version blob diverged from the original")
	}
	warm(cfgB) // evicts A, faults B in
	want("after evicting the A recomputed over an older-version blob", 5, 4, 6)
	if got, err := store.Get(keyA); err != nil || !bytes.Equal(got, blobA) {
		t.Fatalf("A's older-version blob was not rewritten (err %v)", err)
	}
	if v := binary.LittleEndian.Uint32(blobA[len("MEECSNP\x00"):]); v != snapstore.Version {
		t.Fatalf("rewritten blob has version %d, want %d", v, snapstore.Version)
	}
}

// TestWarmCacheConcurrentEvictions drives the disk tier from several
// goroutines at once. With capacity 1 every miss evicts, so spills, blob
// freshening, fault-ins and adoptions of in-flight entries interleave; run
// it under -race. Every state handed out must transmit exactly as a fresh
// warm-up does.
func TestWarmCacheConcurrentEvictions(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	store, err := snapstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewWarmCache(1)
	c.AttachStore(store)
	cfgs := []ChannelConfig{DefaultChannelConfig(5), DefaultChannelConfig(6)}
	refs := make([]*ChannelResult, len(cfgs))
	for i := range cfgs {
		cfgs[i].Bits = AlternatingBits(4)
		ws, err := WarmChannel(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if refs[i], err = ws.Run(cfgs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (g + i) % len(cfgs)
				ws, err := c.Warm(cfgs[k])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := ws.Run(cfgs[k]); err != nil || !reflect.DeepEqual(got, refs[k]) {
					t.Errorf("goroutine %d, call %d: warm state for seed %d diverged (err %v)", g, i, cfgs[k].Options.Seed, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmStateBlobPinned pins the warm-state wire format: Encode's blobs
// at two seeds keep the digests of format version 3, the sparse images
// without DRAM refresh clocks, DRAM statistics or a stored PRM base. A
// change to the layout is a format change, which bumps snapstore.Version;
// blobs of another version are recomputed, not misread
// (TestWarmCacheDiskTier). A change to the warm config's JSON alone keeps
// the version when older blobs still decode to states that run
// identically: the decoder ignores JSON fields the config no longer has.
// It also bounds what one Encode allocates: the blob's one buffer plus the
// state export it is written from, under 2.5x the blob.
func TestWarmStateBlobPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	for _, tc := range []struct {
		seed uint64
		size int
		sha  string
	}{
		{7, 364421, "013b5b41f578d5517da1cc21eaf19fa45f904de06fa7b405abefeeee26368332"},
		{1007, 364427, "409c5b9f86524d12bbacdcf67b3326c69123e4e9183111f8e4144ef8b4c418d3"},
	} {
		ws, err := WarmChannel(DefaultChannelConfig(tc.seed))
		if err != nil {
			t.Fatalf("seed %d: WarmChannel: %v", tc.seed, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		blob, err := ws.Encode()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("seed %d: Encode: %v", tc.seed, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); len(blob) != tc.size || got != tc.sha {
			t.Errorf("seed %d: blob is %d bytes, sha256 %s; want %d bytes, %s", tc.seed, len(blob), got, tc.size, tc.sha)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) >= 2.5*float64(len(blob)) {
			t.Errorf("seed %d: Encode allocated %d bytes, %.2fx the %d-byte blob; want under 2.5x",
				tc.seed, alloc, float64(alloc)/float64(len(blob)), len(blob))
		}
	}
}

// decodedSink keeps BenchmarkWarmStateDecode's result live.
var decodedSink *ChannelWarmState

// benchWarmState warms the default channel once for the codec benchmarks.
func benchWarmState(b *testing.B) *ChannelWarmState {
	b.Helper()
	ws, err := WarmChannel(DefaultChannelConfig(7))
	if err != nil {
		b.Fatal(err)
	}
	return ws
}

func BenchmarkWarmStateEncode(b *testing.B) {
	ws := benchWarmState(b)
	var blob []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if blob, err = ws.Encode(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1e6, "blobMB")
}

func BenchmarkWarmStateDecode(b *testing.B) {
	blob, err := benchWarmState(b).Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decodedSink, err = DecodeWarmState(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob))/1e6, "blobMB")
}

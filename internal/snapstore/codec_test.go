package snapstore_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
)

// buildSnapshot boots a platform, warms it through an enclave thread (MEE
// cache fills, integrity-tree materialization, CPU cache state, COW pages),
// and snapshots at quiescence, returning the snapshot plus the thread state
// and clock needed to resume work on a fork.
func buildSnapshot(tb testing.TB, seed uint64) (*platform.Snapshot, platform.ThreadState, sim.Cycles) {
	tb.Helper()
	p := platform.New(platform.DefaultConfig(seed))
	pr := p.NewProcess("victim")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		tb.Fatal(err)
	}
	var st platform.ThreadState
	var end sim.Cycles
	p.SpawnThread("warm", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		for i := 0; i < 512; i++ {
			va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
		st = th.State()
		end = th.Now()
	})
	p.Run(-1)
	return p.Snapshot(), st, end
}

// traceFork resumes the warmed thread on a fork of snap and records the full
// timing/level/MEE-hit stream of a deterministic probe pattern.
func traceFork(tb testing.TB, snap *platform.Snapshot, st platform.ThreadState, start sim.Cycles) []platform.AccessResult {
	tb.Helper()
	plat := snap.Fork()
	pr := plat.Procs()[0]
	e := pr.Enclave()
	var out []platform.AccessResult
	plat.ResumeThread("probe", pr, start, st, func(th *platform.Thread) {
		for i := 0; i < 768; i++ {
			va := e.Base + enclave.VAddr((i*64*7)%int(e.Size()))
			if i%5 == 0 {
				th.Flush(va)
			}
			out = append(out, th.Access(va))
		}
	})
	plat.Run(-1)
	return out
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 7)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapstore.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The full exported state must survive the round trip bit-for-bit.
	want, got := snap.ExportState(), dec.ExportState()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("decoded snapshot state differs from original")
	}
	// And the codec itself must be deterministic: encoding the decoded
	// snapshot reproduces the original blob byte-for-byte.
	blob2, err := snapstore.EncodeSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encoding a decoded snapshot changed the blob (%d vs %d bytes)", len(blob), len(blob2))
	}
	// Seal frames a payload exactly as the encoder's in-place seal does.
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapstore.Seal(snapstore.KindSnapshot, payload), blob) {
		t.Fatal("Seal of the unsealed payload differs from the encoded blob")
	}
}

// TestDecodedForkMatchesInMemoryFork is the determinism proof for the wire
// format: a fork of decode(encode(snapshot)) produces exactly the timing
// stream a fork of the in-memory snapshot does.
func TestDecodedForkMatchesInMemoryFork(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		snap, st, end := buildSnapshot(t, seed)
		blob, err := snapstore.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := snapstore.DecodeSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		mem := traceFork(t, snap, st, end)
		disk := traceFork(t, dec, st, end)
		if !reflect.DeepEqual(mem, disk) {
			t.Fatalf("seed %d: decoded fork diverged from in-memory fork", seed)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 11)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at assorted depths.
	for _, n := range []int{0, 1, 7, 8, 55, len(blob) / 2, len(blob) - 1} {
		if _, err := snapstore.DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Bit flips across the blob, including the framing and the trailer.
	for _, pos := range []int{0, 9, 20, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		dam := append([]byte(nil), blob...)
		dam[pos] ^= 0x40
		if _, err := snapstore.DecodeSnapshot(dam); err == nil {
			t.Fatalf("bit flip at %d decoded without error", pos)
		}
	}
	// Wrong kind: a warm-state seal must not decode as a snapshot.
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapstore.DecodeSnapshot(snapstore.Seal(snapstore.KindWarm, payload)); err == nil {
		t.Fatal("wrong-kind blob decoded without error")
	}

	// Images that each break one rule of the sparse layout, encoded and
	// resealed so that they pass the trailer and reach the decoder. Each
	// rule keeps decode → encode a fixed point.
	reseal := func(st *platform.SnapshotState) []byte {
		var w snapstore.Writer
		if err := snapstore.AppendState(&w, st); err != nil {
			t.Fatal(err)
		}
		return snapstore.Seal(snapstore.KindSnapshot, w.Bytes())
	}
	if _, err := snapstore.DecodeSnapshot(reseal(snap.ExportState())); err != nil {
		t.Fatalf("undamaged image: %v", err)
	}
	fix := snap.ExportState()
	if len(fix.MEE.Cache.Listed) < 2 || len(fix.MEE.Initialized) < 2 || fix.MEE.Cache.Listed[0].Valid == 0 {
		t.Fatalf("fixture lists %d MEE sets, the first with valid mask %#x, and %d init words; want 2 sets with lines and 2 words",
			len(fix.MEE.Cache.Listed), fix.MEE.Cache.Listed[0].Valid, len(fix.MEE.Initialized))
	}
	for _, tc := range []struct {
		name   string
		damage func(st *platform.SnapshotState)
	}{
		{"set index repeats", func(st *platform.SnapshotState) {
			sets := st.MEE.Cache.Listed
			sets[1].Set = sets[0].Set
		}},
		{"set index descends", func(st *platform.SnapshotState) {
			sets := st.MEE.Cache.Listed
			sets[0], sets[1] = sets[1], sets[0]
		}},
		{"set index at Sets", func(st *platform.SnapshotState) {
			c := st.MEE.Cache
			c.Listed[len(c.Listed)-1].Set = c.Sets
		}},
		{"valid bit at Ways", func(st *platform.SnapshotState) {
			c := st.MEE.Cache
			ss := &c.Listed[0]
			ss.Valid |= 1 << c.Ways
			ss.Tags = append(ss.Tags, 1)
		}},
		{"dirty bit outside valid", func(st *platform.SnapshotState) {
			ss := &st.MEE.Cache.Listed[0]
			low := ss.Valid & -ss.Valid
			ss.Valid &^= low
			ss.Dirty |= low
			ss.Tags = ss.Tags[1:]
		}},
		{"listed set untouched", func(st *platform.SnapshotState) {
			p, err := cache.PolicyByName(st.MEEPolicy, rand.New(rand.NewPCG(0, 0)))
			if err != nil {
				t.Fatal(err)
			}
			ss := &st.MEE.Cache.Listed[0]
			ss.Valid, ss.Dirty, ss.Tags = 0, 0, nil
			p.Init(ss.Window)
		}},
		{"sparse word out of order", func(st *platform.SnapshotState) {
			ws := st.MEE.Initialized
			ws[0], ws[1] = ws[1], ws[0]
		}},
		{"sparse word out of range", func(st *platform.SnapshotState) {
			st.GenUsed = append(st.GenUsed, cache.Word{Index: 1<<32 - 1, Value: 1})
		}},
		{"sparse word zero", func(st *platform.SnapshotState) {
			st.MEE.Initialized[0].Value = 0
		}},
		{"page line listed but zero", func(st *platform.SnapshotState) {
			for i := range st.Mem.Pages {
				if p := &st.Mem.Pages[i]; p.Lines != 0 {
					clear(p.Data[:dram.LineSize])
					return
				}
			}
			t.Fatal("fixture has no page with a nonzero line")
		}},
		// The machine config's rules. Each image is otherwise one the
		// decoder would accept, so the rule is what rejects it.
		{"cpu cores not the machine's", func(st *platform.SnapshotState) {
			st.Cfg.CPU.Cores = platform.Cores / 2
			st.Caches.L1 = st.Caches.L1[:platform.Cores/2]
			st.Caches.L2 = st.Caches.L2[:platform.Cores/2]
		}},
		{"dram smaller than the PRM", func(st *platform.SnapshotState) {
			st.Cfg.DRAM.Size = platform.PRMSize / 2
			st.Mem.Pages = slices.DeleteFunc(st.Mem.Pages, func(p dram.PageImage) bool {
				return p.Index >= st.Cfg.DRAM.Size/dram.PageBytes
			})
		}},
		{"PRM base not line aligned", func(st *platform.SnapshotState) {
			st.Cfg.DRAM.Size += dram.LineSize / 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := snap.ExportState()
			tc.damage(st)
			if _, err := snapstore.DecodeSnapshot(reseal(st)); !errors.Is(err, snapstore.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestPayloadBound checks the bound AppendSnapshot grows its writer by
// before writing: at least the payload, or the buffer regrows by a quarter
// and is copied, and at most the payload plus a few KB of slack.
func TestPayloadBound(t *testing.T) {
	for _, seed := range []uint64{5, 9} {
		snap, _, _ := buildSnapshot(t, seed)
		blob, err := snapstore.EncodeSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
		if err != nil {
			t.Fatal(err)
		}
		st := snap.ExportState()
		cfgJSON, err := json.Marshal(st.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		bound := len(cfgJSON) + snapstore.PayloadBound(st)
		if bound < len(payload) || bound > len(payload)+8<<10 {
			t.Errorf("seed %d: bound %d for a %d-byte payload; want at least the payload and at most 8 KB over",
				seed, bound, len(payload))
		}
	}
}

// TestReaderRejectsOverflowingCounts feeds length prefixes whose byte size
// wraps: 8*(2^61+1) is 8 modulo 2^64, so a bound check that multiplies lets
// the count through to an allocation that panics. Each must come back as
// ErrCorrupt, through the bare Reader and through a sealed snapshot whose
// DRAM open-row count was overwritten.
func TestReaderRejectsOverflowingCounts(t *testing.T) {
	const huge = uint64(1)<<61 + 1
	var w snapstore.Writer
	w.U64(huge)
	w.U64(0) // one word of payload after the count
	words := w.Bytes()

	snap, _, _ := buildSnapshot(t, 5)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Clone(sealed)
	// Skip the config, MEE policy, master key, RNG state and DRAM
	// allocation count to reach the open-row slice's length prefix.
	r := snapstore.NewReader(payload)
	r.Blob()
	_ = r.String()
	r.Raw(16)
	r.Blob()
	r.I64()
	at := len(payload) - r.Remaining()
	if got, want := binary.LittleEndian.Uint64(payload[at:]), len(snap.ExportState().Mem.OpenRow); r.Err() != nil || got != uint64(want) {
		t.Fatalf("open-row count at offset %d reads %d (err %v), want %d", at, got, r.Err(), want)
	}
	binary.LittleEndian.PutUint64(payload[at:], huge)
	damaged := snapstore.Seal(snapstore.KindSnapshot, payload)

	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"Count", func() error { r := snapstore.NewReader(words); r.Count(8); return r.Err() }},
		{"U64s", func() error { r := snapstore.NewReader(words); r.U64s(); return r.Err() }},
		{"I64s", func() error { r := snapstore.NewReader(words); r.I64s(); return r.Err() }},
		{"DecodeSnapshot", func() error { _, err := snapstore.DecodeSnapshot(damaged); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(); !errors.Is(err, snapstore.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

package core

import (
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

func TestInBandChannelSynchronizes(t *testing.T) {
	cfg := DefaultChannelConfig(61)
	cfg.Bits = RandomBits(61, 64)
	res, err := RunInBandChannel(cfg)
	if err != nil {
		t.Fatalf("%v (events=%d attempt=%d)", err, res.Events, res.Attempt)
	}
	if !res.SyncFound {
		t.Fatal("sync word not found")
	}
	if res.ErrorRate > 0.1 {
		t.Fatalf("in-band error rate %.3f", res.ErrorRate)
	}
	t.Logf("in-band sync: locked on attempt %d, %d bit errors, %.1f KBps effective",
		res.Attempt, res.BitErrors, res.KBps)
}

func TestInBandSpyCutShortReportsError(t *testing.T) {
	// A one-cycle search budget puts the run limit inside the spy's
	// monitor discovery: the run must fail, not index a decode it never made.
	cfg := DefaultChannelConfig(42)
	cfg.Bits = RandomBits(42, 8)
	cfg.budgets = warmBudgets{calBudget, setupBudget, 1}
	if _, err := RunInBandChannel(cfg); err == nil || err.Error() != "core: in-band spy never completed" {
		t.Fatalf("err = %v, want in-band spy never completed", err)
	}
}

func TestInBandChannelAcrossSeeds(t *testing.T) {
	// The trojan's start offset varies by seed; synchronization must not
	// depend on any particular phase.
	ok := 0
	for seed := uint64(62); seed < 67; seed++ {
		cfg := DefaultChannelConfig(seed)
		cfg.Bits = RandomBits(seed, 32)
		res, err := RunInBandChannel(cfg)
		if err != nil {
			t.Logf("seed %d: %v (events=%d)", seed, err, res.Events)
			continue
		}
		if res.SyncFound && res.ErrorRate <= 0.15 {
			ok++
		}
	}
	if ok < 4 {
		t.Fatalf("in-band sync succeeded for only %d/5 seeds", ok)
	}
}

// buildFrame assembles preamble + sync word + payload the way the trojan
// transmits it.
func buildFrame(payload []byte) []byte {
	frame := make([]byte, 0, preambleBits+len(syncWord)+len(payload))
	for i := 0; i < preambleBits; i++ {
		frame = append(frame, byte((i+1)%2))
	}
	frame = append(frame, syncWord...)
	return append(frame, payload...)
}

func TestFindFrameLocatesPayload(t *testing.T) {
	payload := []byte{1, 0, 0, 1, 1, 0, 1, 0}
	decoded := buildFrame(payload)
	got, ok := findFrame(decoded, len(payload))
	if !ok {
		t.Fatal("sync word not found in a clean frame")
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload %v != %v", got, payload)
		}
	}
	// A phase shift prepends garbage windows; the scan still locks.
	shifted := append([]byte{0, 0, 1}, decoded...)
	if _, ok := findFrame(shifted, len(payload)); !ok {
		t.Fatal("sync word not found after a stream shift")
	}
}

func TestFindFrameRejectsCorruptedSync(t *testing.T) {
	payload := []byte{1, 0, 0, 1, 1, 0, 1, 0}
	// Flip one sync-word bit per variant: every attempt's decode is
	// corrupted, so the whole sweep must come back empty — the sync word is
	// exactly what repetition cannot vote away, since each attempt scans a
	// different phase's decode independently.
	for flip := 0; flip < len(syncWord); flip++ {
		decoded := buildFrame(payload)
		decoded[preambleBits+flip] ^= 1
		if _, ok := findFrame(decoded, len(payload)); ok {
			t.Fatalf("corrupted sync bit %d still matched", flip)
		}
	}
}

func TestFindFrameRejectsTruncatedPayload(t *testing.T) {
	payload := []byte{1, 0, 0, 1, 1, 0, 1, 0}
	decoded := buildFrame(payload)
	// Drop the final payload bit: the sync word is present but the payload
	// cannot fit, so the frame must be rejected rather than read past the
	// stream's end.
	if _, ok := findFrame(decoded[:len(decoded)-1], len(payload)); ok {
		t.Fatal("matched a frame whose payload runs off the stream")
	}
	if _, ok := findFrame(nil, len(payload)); ok {
		t.Fatal("matched an empty stream")
	}
}

func TestAwaitTransmissionZeroEvents(t *testing.T) {
	// A monitor page nobody evicts: acquisition must poll to its deadline
	// and report no lock — the "transmission never started" path. Ambient
	// spikes are disabled: over a poll this long (~10x the protocol's real
	// acquisition deadline) the 5% spike rate would eventually fake the two
	// in-band events, which is exactly why the protocol keeps its deadline
	// short; here the subject is the silent-channel path itself.
	cfg := DefaultOptions(99).platformConfig()
	cfg.SpikeProb = 0
	plat := platform.New(cfg)
	defer plat.Close()
	pr := plat.NewProcess("idle-spy")
	if _, err := pr.CreateEnclave(calPages + 1); err != nil {
		t.Fatal(err)
	}
	base := pr.Enclave().Base
	var lockAt sim.Cycles
	events := -1
	plat.SpawnThread("idle-spy", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, 0))
		monitor := base + enclave.VAddr(calPages*enclave.PageBytes)
		lockAt, events = awaitTransmission(th, monitor, threshold, 15_000, th.Now()+2_000_000)
	})
	plat.Run(-1)
	if lockAt != 0 {
		t.Fatalf("locked at %d on a silent channel", lockAt)
	}
	if events != 0 {
		t.Fatalf("saw %d events on a silent channel", events)
	}
}

func TestInBandReportsAcquisitionFailure(t *testing.T) {
	// Reproduce the sweep-level contract on the full protocol: when every
	// phase attempt decodes garbage the run must fail with SyncFound false
	// and a non-nil error, never a silently wrong payload. An absurdly
	// narrow window (well under one eviction pass) guarantees corruption.
	cfg := DefaultChannelConfig(61)
	cfg.Bits = RandomBits(61, 32)
	cfg.Window = 1200
	res, err := RunInBandChannel(cfg)
	if err == nil && res.ErrorRate == 0 {
		t.Fatal("1200-cycle windows decoded perfectly — failure path untestable")
	}
	if err != nil && res.SyncFound && res.BitErrors == 0 {
		t.Fatalf("error %v with SyncFound and no bit errors", err)
	}
	t.Logf("narrow window: err=%v syncFound=%v events=%d", err, res.SyncFound, res.Events)
}

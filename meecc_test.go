package meecc

import "testing"

func TestBitsStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "A", "HELLO, MEE", "\x00\xff\x80"} {
		bits := BitsFromString(s)
		if len(bits) != len(s)*8 {
			t.Fatalf("%q: %d bits", s, len(bits))
		}
		if got := StringFromBits(bits); got != s {
			t.Fatalf("roundtrip %q -> %q", s, got)
		}
	}
}

func TestStringFromBitsDropsPartialByte(t *testing.T) {
	bits := append(BitsFromString("X"), 1, 0, 1)
	if got := StringFromBits(bits); got != "X" {
		t.Fatalf("got %q", got)
	}
}

func TestFacadeChannelEndToEnd(t *testing.T) {
	cfg := DefaultChannelConfig(2024)
	cfg.Bits = BitsFromString("MEE")
	res, err := RunChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.15 {
		t.Fatalf("error rate %.3f", res.ErrorRate)
	}
	// With a low error rate the decoded text is usually intact; don't
	// require it (the raw channel has no error correction), but report it.
	t.Logf("decoded %q with %d bit errors", StringFromBits(res.Received), res.BitErrors)
}

func TestPaperWindowsList(t *testing.T) {
	ws := PaperWindows()
	if len(ws) != 7 || ws[0] != 5000 || ws[len(ws)-1] != 30000 {
		t.Fatalf("windows %v", ws)
	}
}

func TestFacadeParallelChannel(t *testing.T) {
	cfg := DefaultChannelConfig(71)
	cfg.Bits = RandomBits(71, 32)
	res, err := RunParallelChannel(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lanes != 2 || res.KBps < 60 {
		t.Fatalf("lanes=%d rate=%.1f", res.Lanes, res.KBps)
	}
}

func TestFacadeLLCChannelAndStealth(t *testing.T) {
	rows, err := StealthStudy(DefaultOptions(83), 15000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFacadeDetectionStudy(t *testing.T) {
	rows, err := DetectionStudy(DefaultOptions(91), 15000, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
}

func TestFacadeInBand(t *testing.T) {
	cfg := DefaultChannelConfig(61)
	cfg.Bits = BitsFromString("IB")
	res, err := RunInBandChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if StringFromBits(res.Received) != "IB" {
		t.Fatalf("decoded %q", StringFromBits(res.Received))
	}
}

func TestFacadeActivityAndOverhead(t *testing.T) {
	act, err := InferActivity(DefaultOptions(37), 12, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if act.Accuracy < 0.7 {
		t.Fatalf("accuracy %.2f", act.Accuracy)
	}
	rows, err := MeasureOverhead(DefaultOptions(29), []int{32 << 10}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Slowdown() < 1.2 {
		t.Fatalf("slowdown %.2f", rows[0].Slowdown())
	}
}

func TestFacadeResilientUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("resilient session in -short mode")
	}
	cfg := DefaultChannelConfig(2025)
	cfg.Fault = &FaultConfig{Seed: 5, Kinds: []FaultKind{FaultMigration}, Intensity: 2}
	payload := []byte("key")
	res, err := RunResilient(cfg, payload)
	if err != nil {
		// Degradation must be explicit, never silent: an error comes with a
		// recorded abort.
		if res == nil || res.Report.Count(ActAbort) == 0 {
			t.Fatalf("error without recorded abort: %v", err)
		}
		t.Logf("explicit degradation: %v", err)
		return
	}
	if string(res.Payload) != string(payload) {
		t.Fatalf("payload corrupted: %q", res.Payload)
	}
	t.Logf("delivered %d/%d chunks, %d control actions, goodput %.2f KBps",
		res.ChunksDelivered, res.Chunks, len(res.Report.Actions), res.GoodputKBps)
}

package core

import (
	"reflect"
	"testing"

	"meecc/internal/sim"
)

// TestWarmForkMatchesFreshRun is the core warm-forking guarantee: a
// transmission resumed from a forked warm snapshot produces the exact
// ChannelResult — probe latencies, decoded bits, thresholds, footprint —
// that a fresh end-to-end RunChannel produces for the same config. One warm
// state serves several windows and payloads.
func TestWarmForkMatchesFreshRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	base := DefaultChannelConfig(1)
	ws, err := WarmChannel(base)
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	for _, tc := range []struct {
		window sim.Cycles
		bits   []byte
	}{
		{15000, AlternatingBits(24)},
		{15000, PatternBits("100", 24)},
		{7500, AlternatingBits(24)},
	} {
		cfg := base
		cfg.Window = tc.window
		cfg.Bits = tc.bits

		fresh, freshErr := RunChannel(cfg)
		warm, warmErr := ws.Run(cfg)
		if (freshErr == nil) != (warmErr == nil) {
			t.Fatalf("window %d: fresh err %v, warm err %v", tc.window, freshErr, warmErr)
		}
		if !reflect.DeepEqual(fresh, warm) {
			t.Errorf("window %d: warm-forked result differs from fresh run\nfresh: %+v\nwarm:  %+v",
				tc.window, fresh, warm)
		}
	}
}

// TestWarmForkRepetitionDecoding checks the repetition layer (a pure
// transmit-phase feature) through the warm path.
func TestWarmForkRepetitionDecoding(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	cfg := DefaultChannelConfig(2)
	cfg.Bits = AlternatingBits(10)
	cfg.Repetition = 3
	ws, err := WarmChannel(cfg)
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	fresh, freshErr := RunChannel(cfg)
	warm, warmErr := ws.Run(cfg)
	if freshErr != nil || warmErr != nil {
		t.Fatalf("fresh err %v, warm err %v", freshErr, warmErr)
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("repetition run diverged\nfresh: %+v\nwarm:  %+v", fresh, warm)
	}
	if len(warm.Received) != 10 {
		t.Errorf("decoded %d logical bits, want 10", len(warm.Received))
	}
}

// TestWarmRunRejectsIncompatibleConfigs pins the guard rails: configs that
// would have changed the warm phase, or that need platform attachments the
// fork cannot carry, are rejected with a clear error.
func TestWarmRunRejectsIncompatibleConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	base := DefaultChannelConfig(3)
	ws, err := WarmChannel(base)
	if err != nil {
		t.Fatalf("WarmChannel: %v", err)
	}
	for name, mutate := range map[string]func(*ChannelConfig){
		"seed":      func(c *ChannelConfig) { c.Options.Seed++ },
		"two-phase": func(c *ChannelConfig) { c.TwoPhaseEviction = false },
		"noise":     func(c *ChannelConfig) { c.Noise = NoiseMemory },
	} {
		cfg := base
		cfg.Bits = AlternatingBits(4)
		mutate(&cfg)
		if _, err := ws.Run(cfg); err == nil {
			t.Errorf("%s: incompatible config accepted", name)
		}
	}
}

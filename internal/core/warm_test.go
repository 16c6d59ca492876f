package core

import (
	"fmt"
	"reflect"
	"testing"

	"meecc/internal/fault"
	"meecc/internal/obs"
	"meecc/internal/platform"
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

// TestWarmForkMatchesFreshUnderEnvironment extends that guarantee to a
// session's environment. MEE noise starts at t0 and a campaign without its
// own window lands in [t0, end), so a warm state's Run arms both after it
// resumes the threads and must return exactly what RunChannel returns, the
// fault log and the error text included. Every case must move the probe
// latencies or log a fault, so the oracle cannot pass on an environment
// that did nothing: 768 windows give each campaign below at least one event
// at every seed.
func TestWarmForkMatchesFreshUnderEnvironment(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	type env struct {
		name      string
		noise     NoiseKind
		kinds     []fault.Kind
		intensity float64
	}
	envs := []env{{"mee512", NoiseMEE512, nil, 0}, {"mee4k", NoiseMEE4K, nil, 0}}
	for _, k := range fault.AllKinds() {
		for _, intensity := range []float64{1, 4} {
			envs = append(envs, env{fmt.Sprintf("%s@%g", k, intensity), NoiseNone, []fault.Kind{k}, intensity})
		}
	}
	envs = append(envs, env{"all@2+mee4k", NoiseMEE4K, fault.AllKinds(), 2})
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			base := DefaultChannelConfig(seed)
			base.Bits = RandomBits(seed, 768)
			ws, err := WarmChannel(base)
			if err != nil {
				t.Fatalf("WarmChannel: %v", err)
			}
			quiet, err := ws.Run(base)
			if err != nil {
				t.Fatalf("quiet run: %v", err)
			}
			for _, e := range envs {
				cfg := base
				cfg.Noise = e.noise
				if e.kinds != nil {
					cfg.Fault = &fault.Config{Seed: seed, Kinds: e.kinds, Intensity: e.intensity}
				}
				fresh, freshErr := RunChannel(cfg)
				warm, warmErr := ws.Run(cfg)
				if fmt.Sprint(freshErr) != fmt.Sprint(warmErr) {
					t.Errorf("%s: fresh err %v, warm err %v", e.name, freshErr, warmErr)
				}
				if !reflect.DeepEqual(fresh, warm) {
					t.Errorf("%s: warm-forked result differs from fresh run\nfresh: %+v\nwarm:  %+v", e.name, fresh, warm)
				}
				if fresh != nil && len(fresh.Faults) == 0 && reflect.DeepEqual(fresh.ProbeTimes, quiet.ProbeTimes) {
					t.Errorf("%s: same probe times as the quiet run and no fault logged", e.name)
				}
			}
		})
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
// would have changed the warm phase, or that act before it ends, are
// rejected with a clear error.
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
		"seed":         func(c *ChannelConfig) { c.Options.Seed++ },
		"two-phase":    func(c *ChannelConfig) { c.TwoPhaseEviction = false },
		"memory-noise": func(c *ChannelConfig) { c.Noise = NoiseMemory },
		"campaign-window": func(c *ChannelConfig) {
			c.Fault = &fault.Config{Seed: 3, Kinds: fault.AllKinds(), Intensity: 1, Start: 1, End: 100_000_000}
		},
		"on-platform": func(c *ChannelConfig) { c.onPlatform = func(*platform.Platform, sim.Cycles, sim.Cycles) {} },
		"observer":    func(c *ChannelConfig) { c.Obs = obs.NewObserver() },
	} {
		cfg := base
		cfg.Bits = AlternatingBits(4)
		mutate(&cfg)
		if _, err := ws.Run(cfg); err == nil {
			t.Errorf("%s: incompatible config accepted", name)
		}
	}
}

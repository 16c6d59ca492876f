package core

import (
	"testing"
)

func TestBuildChannelConfigParsesParams(t *testing.T) {
	cfg, err := BuildChannelConfig(map[string]string{
		"window":     "20000",
		"bits":       "48",
		"pattern":    "100",
		"noise":      "mee4k",
		"policy":     "bit-plru",
		"epc":        "fragmented",
		"repetition": "3",
		"twophase":   "false",
		"probephase": "0.5",
	}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Window != 20000 || len(cfg.Bits) != 48 || cfg.Noise != NoiseMEE4K ||
		cfg.Options.MEEPolicy != "bit-plru" || cfg.Repetition != 3 ||
		cfg.TwoPhaseEviction || cfg.ProbePhase != 0.5 || cfg.Options.Seed != 99 {
		t.Errorf("config %+v", cfg)
	}
	for i, b := range cfg.Bits {
		if want := []byte{1, 0, 0}[i%3]; b != want {
			t.Fatalf("bit %d = %d, want %d (pattern '100')", i, b, want)
		}
	}
}

func TestBuildChannelConfigPatterns(t *testing.T) {
	alt, err := BuildChannelConfig(map[string]string{"pattern": "alternating", "bits": "6"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range alt.Bits {
		if b != byte(i%2) {
			t.Fatalf("alternating bit %d = %d", i, b)
		}
	}
	// Random payloads are a pure function of the seed.
	r1, _ := BuildChannelConfig(map[string]string{"bits": "64"}, 5)
	r2, _ := BuildChannelConfig(map[string]string{"bits": "64"}, 5)
	r3, _ := BuildChannelConfig(map[string]string{"bits": "64"}, 6)
	same, diff := true, false
	for i := range r1.Bits {
		same = same && r1.Bits[i] == r2.Bits[i]
		diff = diff || r1.Bits[i] != r3.Bits[i]
	}
	if !same {
		t.Error("equal seeds produced different random payloads")
	}
	if !diff {
		t.Error("different seeds produced identical random payloads")
	}
}

func TestBuildChannelConfigRejectsBadParams(t *testing.T) {
	bad := []map[string]string{
		{"window": "abc"},
		{"bits": "0"},
		{"pattern": "012"},
		{"noise": "hurricane"},
		{"epc": "nope"},
		{"policy": "bogus"},
		{"no-such-param": "1"},
		// Out of range: no default or raw value may run under the label
		// of the value a cell was given.
		{"window": "0"},
		{"window": "-5"},
		{"probephase": "0"},
		{"probephase": "1"},
		{"probephase": "1.5"},
		{"probephase": "-0.2"},
		{"probephase": "NaN"},
		{"repetition": "-1"},
		{"intensity": "-1"},
		{"intensity": "NaN"},
		{"intensity": "+Inf"},
		{"faults": "timer", "intensity": "-2"},
	}
	for _, params := range bad {
		if _, err := BuildChannelConfig(params, 1); err == nil {
			t.Errorf("params %v accepted", params)
		}
	}
	// The edges that have a meaning stay accepted: raw transmission, and a
	// fault campaign that injects nothing.
	for _, params := range []map[string]string{
		{"repetition": "0"},
		{"repetition": "1"},
		{"intensity": "0"},
		{"faults": "all", "intensity": "0"},
	} {
		if _, err := BuildChannelConfig(params, 1); err != nil {
			t.Errorf("params %v rejected: %v", params, err)
		}
	}
}

func TestParseNoiseKind(t *testing.T) {
	cases := map[string]NoiseKind{
		"":       NoiseNone,
		"none":   NoiseNone,
		"memory": NoiseMemory,
		"mee512": NoiseMEE512,
		"mee4k":  NoiseMEE4K,
	}
	for s, want := range cases {
		got, err := ParseNoiseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseNoiseKind(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseNoiseKind("loud"); err == nil {
		t.Error("unknown noise kind accepted")
	}
}

func TestCapacityTrialMetrics(t *testing.T) {
	m, _, err := CapacityTrial(map[string]string{"samples": "10"}, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if m["capacity_kb"] != 64 {
		t.Errorf("capacity %v KB, want 64", m["capacity_kb"])
	}
	if p, ok := m["p_evict_64"]; !ok || p < 0.995 {
		t.Errorf("p_evict_64 = %v, want 1.0", p)
	}
	if _, _, err := CapacityTrial(map[string]string{"samples": "0"}, 1, false); err == nil {
		t.Error("samples=0 accepted")
	}
	if _, _, err := CapacityTrial(map[string]string{"bogus": "1"}, 1, false); err == nil {
		t.Error("unknown capacity param accepted")
	}
}

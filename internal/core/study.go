package core

import (
	"fmt"
	"strconv"

	"meecc/internal/enclave"
	"meecc/internal/fault"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// This file is the declarative entry point the experiment harness
// (internal/exp) drives: each study is a pure function of a flat
// string-parameter map and a seed, so trials are re-entrant and can fan
// out across goroutines with no shared state.

// ParseNoiseKind maps a spec string to a NoiseKind.
func ParseNoiseKind(s string) (NoiseKind, error) {
	switch s {
	case "", "none":
		return NoiseNone, nil
	case "memory":
		return NoiseMemory, nil
	case "mee512":
		return NoiseMEE512, nil
	case "mee4k":
		return NoiseMEE4K, nil
	default:
		return NoiseNone, fmt.Errorf("core: unknown noise kind %q", s)
	}
}

// PaperWindows are the window sizes of Figure 7.
func PaperWindows() []sim.Cycles {
	return []sim.Cycles{5000, 7500, 10000, 15000, 20000, 25000, 30000}
}

// parseEPCMode maps a spec string to an enclave allocation mode.
func parseEPCMode(s string) (enclave.AllocMode, error) {
	switch s {
	case "", "sequential", "contiguous":
		return enclave.AllocSequential, nil
	case "chunked", "fragmented":
		return enclave.AllocChunked, nil
	case "shuffled":
		return enclave.AllocShuffled, nil
	default:
		return enclave.AllocSequential, fmt.Errorf("core: unknown epc mode %q", s)
	}
}

// BuildChannelConfig constructs a ChannelConfig from declarative string
// parameters — the cell format of the experiment harness. Recognized
// parameters (all optional):
//
//	window      per-bit timing window in cycles
//	bits        payload length in bits
//	pattern     "random" (seeded per trial), "alternating", or a 0/1
//	            string repeated to length ("100" is Figure 8's sequence)
//	noise       none | memory | mee512 | mee4k
//	policy      MEE replacement policy (see Options.MEEPolicy)
//	epc         sequential | chunked | shuffled
//	repetition  repetition-coding factor
//	twophase    "true"/"false": forward+backward eviction
//	probephase  spy probe point as a window fraction (0..1)
//	faults      fault kinds to inject: "all", "none", or a comma list
//	            (migration,timer,paging,meeflush,storm)
//	intensity   fault campaign intensity (default 1 when faults are set)
//	faultseed   pins the fault schedule seed (default: derived from the
//	            trial seed, so seed replicates see different schedules)
func BuildChannelConfig(params map[string]string, seed uint64) (ChannelConfig, error) {
	cfg := DefaultChannelConfig(seed)
	nbits := len(cfg.Bits)
	pattern := "random"
	var faultKinds []fault.Kind
	faultIntensity := 1.0
	faultSeed := seed ^ 0x9e3779b97f4a7c15
	haveFaults := false
	for name, val := range params {
		var err error
		switch name {
		case "window":
			var w int64
			w, err = strconv.ParseInt(val, 10, 64)
			cfg.Window = sim.Cycles(w)
		case "bits":
			nbits, err = strconv.Atoi(val)
		case "pattern":
			pattern = val
		case "noise":
			cfg.Noise, err = ParseNoiseKind(val)
		case "policy":
			cfg.Options.MEEPolicy, err = val, CheckMEEPolicy(val)
		case "epc":
			cfg.Options.EPCMode, err = parseEPCMode(val)
		case "repetition":
			cfg.Repetition, err = strconv.Atoi(val)
		case "twophase":
			cfg.TwoPhaseEviction, err = strconv.ParseBool(val)
		case "probephase":
			cfg.ProbePhase, err = strconv.ParseFloat(val, 64)
		case "faults":
			faultKinds, err = fault.ParseKinds(val)
			haveFaults = true
		case "intensity":
			faultIntensity, err = strconv.ParseFloat(val, 64)
			haveFaults = true
		case "faultseed":
			faultSeed, err = strconv.ParseUint(val, 10, 64)
		default:
			return cfg, fmt.Errorf("core: unknown channel parameter %q", name)
		}
		if err != nil {
			return cfg, fmt.Errorf("core: channel parameter %s=%q: %v", name, val, err)
		}
	}
	if nbits < 1 {
		return cfg, fmt.Errorf("core: channel parameter bits must be >= 1, got %d", nbits)
	}
	if haveFaults && faultIntensity > 0 {
		if faultKinds == nil && params["faults"] == "" {
			faultKinds = fault.AllKinds()
		}
		if len(faultKinds) > 0 {
			cfg.Fault = &fault.Config{Seed: faultSeed, Kinds: faultKinds, Intensity: faultIntensity}
		}
	}
	switch pattern {
	case "random":
		cfg.Bits = RandomBits(seed, nbits)
	case "alternating":
		cfg.Bits = AlternatingBits(nbits)
	default:
		for _, ch := range pattern {
			if ch != '0' && ch != '1' {
				return cfg, fmt.Errorf("core: channel pattern %q is not random, alternating, or a 0/1 string", pattern)
			}
		}
		cfg.Bits = PatternBits(pattern, nbits)
	}
	return cfg, nil
}

// ChannelTrial runs one covert-channel trial from declarative parameters
// at the given seed and returns its scalar metrics — the harness's
// "channel" study. A run whose setup fails returns an error (the harness
// records it as a cell failure).
func ChannelTrial(params map[string]string, seed uint64, withMetrics bool) (map[string]float64, *obs.Snapshot, error) {
	return ChannelTrialWarm(params, seed, withMetrics, nil)
}

// ChannelTrialWarm is ChannelTrial with an optional warm-state cache: when
// warm is non-nil and the config qualifies for warm forking (no noise, no
// faults, no observer — see warmRestriction), the trial forks a cached
// warmed platform instead of warming its own. The result is exactly the
// one a fresh run produces, so callers may mix cached and uncached trials
// freely; configs the warm path cannot carry silently fall back to
// RunChannel.
func ChannelTrialWarm(params map[string]string, seed uint64, withMetrics bool, warm *WarmCache) (map[string]float64, *obs.Snapshot, error) {
	cfg, err := BuildChannelConfig(params, seed)
	if err != nil {
		return nil, nil, err
	}
	var o *obs.Observer
	if withMetrics {
		o = obs.NewObserver()
		cfg.Obs = o
	}
	var res *ChannelResult
	if warm != nil && warmRestriction(cfg) == nil {
		ws, werr := warm.Warm(cfg)
		if werr != nil {
			return nil, nil, werr
		}
		res, err = ws.Run(cfg)
	} else {
		res, err = RunChannel(cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return map[string]float64{
		"kbps":         res.KBps,
		"error_rate":   res.ErrorRate,
		"bit_errors":   float64(res.BitErrors),
		"bits":         float64(len(res.Sent)),
		"eviction_set": float64(res.EvictionSetSize),
		"setup_mcyc":   float64(res.SetupCycles) / 1e6,
	}, o.Snapshot(), nil
}

// CapacityTrial runs one §4.1 capacity experiment (Figure 4) from
// declarative parameters — the harness's "capacity" study. Parameters:
//
//	epc      sequential | chunked | shuffled
//	samples  eviction tests per candidate-set size
//
// Metrics: p_evict_<n> per candidate count n, plus capacity_kb.
func CapacityTrial(params map[string]string, seed uint64, withMetrics bool) (map[string]float64, *obs.Snapshot, error) {
	opts := DefaultOptions(seed)
	samples := 25
	for name, val := range params {
		var err error
		switch name {
		case "epc":
			opts.EPCMode, err = parseEPCMode(val)
		case "samples":
			samples, err = strconv.Atoi(val)
		default:
			return nil, nil, fmt.Errorf("core: unknown capacity parameter %q", name)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("core: capacity parameter %s=%q: %v", name, val, err)
		}
	}
	if samples < 1 {
		return nil, nil, fmt.Errorf("core: capacity parameter samples must be >= 1, got %d", samples)
	}
	var o *obs.Observer
	if withMetrics {
		o = obs.NewObserver()
		opts.Obs = o
	}
	res, err := MeasureCapacity(opts, nil, samples)
	if err != nil {
		return nil, nil, err
	}
	out := map[string]float64{"capacity_kb": float64(res.CapacityBytes) / 1024}
	for _, p := range res.Points {
		out[fmt.Sprintf("p_evict_%d", p.Candidates)] = p.Probability
	}
	return out, o.Snapshot(), nil
}

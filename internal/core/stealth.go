package core

import (
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// runChannelRetrying runs the channel, retrying setup failures (monitor
// discovery or Algorithm 1 can fail on an unlucky seed) under fresh
// conditions — what a real attacker does by simply starting over.
// onPlatform, when non-nil, is every attempt's ChannelConfig.onPlatform.
func runChannelRetrying(opts Options, window sim.Cycles, bits []byte, onPlatform func(*platform.Platform, sim.Cycles, sim.Cycles)) (*ChannelResult, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		seed := opts.Seed + uint64(attempt)*2654435761
		cfg := DefaultChannelConfig(seed)
		cfg.Options = opts
		cfg.Options.Seed = seed
		cfg.Window = window
		cfg.Bits = bits
		cfg.onPlatform = onPlatform
		res, err := RunChannel(cfg)
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// StealthRow compares one attack's detector-visible footprint.
type StealthRow struct {
	Attack             string
	Bits               int
	ErrorRate          float64
	LLCEvictionsPerBit float64
	// LLCHottestShare is the concentration of LLC conflict evictions in a
	// single set — the signature LLC-attack detectors (CacheShield,
	// ReplayConfusion et al., paper §5.5) key on.
	LLCHottestShare float64
	MEEReadsPerBit  float64
}

// StealthStudy quantifies the paper's stealth argument (§1, §5.5): the MEE
// channel's conflict pattern lives in the MEE cache, which no performance
// counter exposes, while a classic LLC Prime+Probe channel concentrates
// its evictions on one LLC set. Both channels transmit the same payload;
// the table reports their transmission-phase footprints.
func StealthStudy(opts Options, window sim.Cycles, nbits int) ([]StealthRow, error) {
	bits := RandomBits(opts.Seed, nbits)

	meeRes, err := runChannelRetrying(opts, window, bits, nil)
	if err != nil {
		return nil, err
	}

	llcCfg := DefaultChannelConfig(opts.Seed + 1)
	llcCfg.Options = opts
	llcCfg.Options.Seed = opts.Seed + 1
	llcCfg.Bits = bits
	llcRes, err := RunLLCChannel(llcCfg)
	if err != nil {
		return nil, err
	}

	n := float64(nbits)
	return []StealthRow{
		{
			Attack:             "mee-cache-channel",
			Bits:               nbits,
			ErrorRate:          meeRes.ErrorRate,
			LLCEvictionsPerBit: float64(meeRes.Footprint.LLCEvictions) / n,
			LLCHottestShare:    meeRes.Footprint.LLCHottestShare,
			MEEReadsPerBit:     float64(meeRes.Footprint.MEEReads) / n,
		},
		{
			Attack:             "llc-prime-probe",
			Bits:               nbits,
			ErrorRate:          llcRes.ErrorRate,
			LLCEvictionsPerBit: float64(llcRes.Footprint.LLCEvictions) / n,
			LLCHottestShare:    llcRes.Footprint.LLCHottestShare,
			MEEReadsPerBit:     float64(llcRes.Footprint.MEEReads) / n,
		},
	}, nil
}

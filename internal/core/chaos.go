package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"

	"meecc/internal/code"
	"meecc/internal/obs"
)

// ChaosTrial runs one chaos-study cell: the same payload is pushed through
// the channel twice under an identical fault campaign — once as a static
// single-shot framed transfer (encode, transmit, decode, no reaction), once
// through the adaptive session layer (RunResilient) — so every cell directly
// compares what the error-handling buys. Parameters (beyond the channel
// parameters BuildChannelConfig accepts):
//
//	payload  payload length in bytes (default 16; seeded content)
//
// The faults/intensity/faultseed parameters select the campaign; with none
// of them set the trial measures the fault-free baseline.
//
// Chaos trials always boot fresh platforms, never warm forks: fault
// injectors attach to the platform and arm themselves during the warm
// phase, which is exactly the state a platform snapshot cannot carry (see
// warmRestriction). The harness therefore shares seeds but not warm state
// when a chaos spec uses SharedAxes.
//
// Metrics: static_ber, static_delivered, static_goodput_kbps,
// adaptive_delivered, adaptive_goodput_kbps, adaptive_rounds, retransmits,
// recals, resyncs, bits_sent, faults_applied.
//
// With withMetrics set, each arm runs under its own observer and the two
// snapshots are merged under "static." / "adaptive." prefixes, so the fault
// counters (fault.applied.*) of an arm sit next to that same arm's
// degradation and error counters — a degradation event in the adaptive arm
// correlates directly with the faults injected into that arm, instead of the
// per-trial component state being discarded.
func ChaosTrial(params map[string]string, seed uint64, withMetrics bool) (map[string]float64, *obs.Snapshot, error) {
	payloadBytes := 16
	chanParams := make(map[string]string, len(params))
	for name, val := range params {
		if name == "payload" {
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > code.MaxPayload {
				return nil, nil, fmt.Errorf("core: chaos parameter payload=%q: want 1..%d", val, code.MaxPayload)
			}
			payloadBytes = n
			continue
		}
		chanParams[name] = val
	}
	// "bits" and "pattern" make no sense here: the payload defines the bits.
	for _, bad := range []string{"bits", "pattern"} {
		if _, ok := chanParams[bad]; ok {
			return nil, nil, fmt.Errorf("core: chaos study does not accept the %q parameter", bad)
		}
	}
	base, err := BuildChannelConfig(chanParams, seed)
	if err != nil {
		return nil, nil, err
	}
	var oStatic, oAdaptive *obs.Observer
	if withMetrics {
		oStatic = obs.NewObserver()
		oAdaptive = obs.NewObserver()
	}

	payload := make([]byte, payloadBytes)
	prng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
	for i := range payload {
		payload[i] = byte(prng.Uint64())
	}

	// Static arm: one framed shot, decode or die.
	codec := code.Codec{InterleaveDepth: 8}
	encoded, err := codec.Encode(payload)
	if err != nil {
		return nil, nil, err
	}
	staticCfg := base
	staticCfg.Bits = encoded
	staticCfg.Obs = oStatic
	ch, err := RunChannel(staticCfg)
	if err != nil {
		return nil, nil, err
	}
	staticDelivered := 0.0
	staticGoodput := 0.0
	if pl, _, err := codec.Decode(ch.Received); err == nil && bytes.Equal(pl, payload) {
		staticDelivered = 1
		// Same accounting as the adaptive arm: payload bytes over channel time.
		staticGoodput = ch.KBps * float64(len(payload)) / float64(len(encoded)) * 8
	}

	// Adaptive arm: the resilient session under the identical campaign.
	adaptiveCfg := base
	adaptiveCfg.Obs = oAdaptive
	res, rerr := RunResilient(adaptiveCfg, payload)
	adaptiveDelivered := 0.0
	if rerr == nil && res.Delivered {
		adaptiveDelivered = 1
	} else if res == nil {
		return nil, nil, rerr // config-level failure, not a link outcome
	}

	var snap *obs.Snapshot
	if withMetrics {
		snap = obs.NewSnapshot()
		snap.Merge("static.", oStatic.Snapshot())
		snap.Merge("adaptive.", oAdaptive.Snapshot())
	}

	return map[string]float64{
		"static_ber":            ch.ErrorRate,
		"static_delivered":      staticDelivered,
		"static_goodput_kbps":   staticGoodput,
		"adaptive_delivered":    adaptiveDelivered,
		"adaptive_goodput_kbps": res.GoodputKBps,
		"adaptive_rounds":       float64(res.Report.Rounds),
		"retransmits":           float64(res.Report.Retransmits),
		"recals":                float64(res.Report.Recals),
		"resyncs":               float64(res.Report.Resyncs),
		"bits_sent":             float64(res.BitsSent),
		"faults_applied":        float64(len(ch.Faults) + len(res.Faults)),
	}, snap, nil
}

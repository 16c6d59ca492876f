package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// In-band synchronization: the base protocol assumes trojan and spy agree
// on the transmission start out of band. This extension drops that
// assumption for the data phase. The trojan starts at a time of its own
// choosing and repeats a framed transmission (alternating preamble, sync
// word, payload) three times; the spy detects activity from eviction
// events, then tries one probe phase per repetition — sweeping the window
// in thirds — until the frame decodes. Phase sweeping is necessary because
// a probe landing inside the trojan's ~9600-cycle eviction pass re-primes
// the monitor mid-pass and corrupts pattern-dependent decoding; one of
// three phases a third of a window apart is always clear of the pass.

// syncWord is the frame delimiter ('11100010'): it contains runs the
// alternating preamble cannot produce.
var syncWord = []byte{1, 1, 1, 0, 0, 0, 1, 0}

// preambleBits is the number of alternating bits ('10' repeated) prepended.
const preambleBits = 24

// frameRepeats is how many times the trojan sends the frame.
const frameRepeats = 3

// InBandResult reports a transfer with in-band synchronization.
type InBandResult struct {
	Sent     []byte
	Received []byte
	// Attempt is the phase-sweep attempt (0-2) that locked.
	Attempt int
	// SyncFound reports whether the sync word was located.
	SyncFound bool
	// Events is the number of acquisition eviction events observed.
	Events    int
	BitErrors int
	ErrorRate float64
	// KBps is the effective payload rate including framing and repetition
	// overhead.
	KBps float64
}

// findFrame scans one attempt's decoded window stream for the sync word
// followed by a complete payload, returning the payload bits. A corrupted
// sync word, or a sync word too close to the stream's end for the payload
// to fit, yields ok == false — the attempt failed and the sweep moves to
// the next probe phase.
func findFrame(decoded []byte, payloadLen int) (payload []byte, ok bool) {
	for i := 0; i+payloadLen+len(syncWord) <= len(decoded); i++ {
		match := true
		for j, b := range syncWord {
			if decoded[i+j] != b {
				match = false
				break
			}
		}
		if match {
			return decoded[i+len(syncWord) : i+len(syncWord)+payloadLen], true
		}
	}
	return nil, false
}

// awaitTransmission polls the monitor slowly until two eviction-latency
// events appear (one spike can fake a single event), returning the lock
// time and the events seen. A deadline pass without lock returns time 0 —
// the spy observed no transmission. Slow polling matters: re-priming the
// monitor mid-pass would suppress the very evictions being watched for.
func awaitTransmission(th *platform.Thread, monitor enclave.VAddr, threshold, window, deadline sim.Cycles) (sim.Cycles, int) {
	th.Access(monitor)
	th.Flush(monitor)
	events := 0
	for th.TimerNow() < deadline {
		t := timedAccess(th, monitor)
		th.Flush(monitor)
		if t > threshold && t < threshold+400 {
			events++
			if events >= 2 {
				return th.TimerNow(), events
			}
		}
		th.Spin(2 * window / 3)
	}
	return 0, events
}

// RunInBandChannel is RunChannel without an agreed transmission start: the
// trojan begins at a start time of its own choosing (derived from its
// seed) and the spy synchronizes from the signal itself.
func RunInBandChannel(cfg ChannelConfig) (*InBandResult, error) {
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	cfg.Repetition = 0 // the repeated frame replaces repetition coding
	s, err := prepareChannel(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	plat := cfg.boot()
	defer plat.Close()
	if err := s.createProcs(plat, 1); err != nil {
		return nil, err
	}

	// The trojan picks its own start; the spy knows only "after the
	// search phase, eventually".
	trojanStart := s.t0 + sim.Cycles(150_000+int64(cfg.Options.Seed%7)*33_000)

	frame := make([]byte, 0, preambleBits+len(syncWord)+len(cfg.Bits))
	for i := 0; i < preambleBits; i++ {
		frame = append(frame, byte((i+1)%2)) // 1,0,1,0,...
	}
	frame = append(frame, syncWord...)
	frame = append(frame, cfg.Bits...)
	totalWindows := frameRepeats*len(frame) + 12
	tEnd := trojanStart + sim.Cycles(totalWindows+4)*cfg.Window

	res := &InBandResult{Sent: cfg.Bits}

	plat.SpawnThread("ib-trojan", s.trojanProc, trojanCore, func(th *platform.Thread) {
		if !s.trojanWarm(th) {
			return
		}
		// Transmit the frame three times back to back.
		for w := 0; w < frameRepeats*len(frame); w++ {
			th.WaitTimer(trojanStart + sim.Cycles(w)*cfg.Window)
			if frame[w%len(frame)] == 1 {
				evictPass(th, s.evSet, cfg.TwoPhaseEviction)
			}
		}
	})

	plat.SpawnThread("ib-spy", s.spyProc, spyCore, func(th *platform.Thread) {
		if !s.spyWarm(th) {
			return
		}
		monitor, threshold := s.monitor, s.spyThreshold

		// Acquisition: from the (agreed) end of the setup schedule, poll
		// slowly until evictions start appearing — transmission has begun.
		// Slow polling matters: re-priming the monitor mid-pass would
		// suppress the very evictions being watched for.
		th.WaitTimer(s.t0)
		acqDeadline := trojanStart + sim.Cycles(preambleBits/2)*cfg.Window
		firstEvent, events := awaitTransmission(th, monitor, threshold, cfg.Window, acqDeadline)
		if firstEvent == 0 {
			s.spyErr = fmt.Errorf("core: in-band acquisition saw no transmission")
			return
		}
		res.Events = events

		// Phase sweep: one attempt per frame repetition, probing a third
		// of a window later each time. Decode a frame's worth of windows
		// and look for the sync word with the payload fully inside.
		for attempt := 0; attempt < frameRepeats; attempt++ {
			off := sim.Cycles(attempt) * cfg.Window / 3
			start := firstEvent + sim.Cycles(attempt*len(frame))*cfg.Window
			decoded := make([]byte, 0, len(frame))
			for k := 0; k < len(frame); k++ {
				th.WaitTimer(start + sim.Cycles(k)*cfg.Window + off)
				t := timedAccess(th, monitor)
				th.Flush(monitor)
				if t > threshold {
					decoded = append(decoded, 1)
				} else {
					decoded = append(decoded, 0)
				}
			}
			if payload, ok := findFrame(decoded, len(cfg.Bits)); ok {
				res.SyncFound = true
				res.Attempt = attempt
				res.Received = payload
				break
			}
		}
		if !res.SyncFound {
			s.spyErr = fmt.Errorf("core: sync word not found in %d phase attempts", frameRepeats)
		}
	})

	plat.Run(tEnd + 4_000_000)
	if err := s.err(); err != nil {
		return res, err
	}
	if res.Received == nil {
		return res, fmt.Errorf("core: in-band spy never completed")
	}
	for i := range res.Sent {
		if res.Received[i] != res.Sent[i] {
			res.BitErrors++
		}
	}
	res.ErrorRate = float64(res.BitErrors) / float64(len(res.Sent))
	// Effective rate includes the framing and repetition cost.
	res.KBps = plat.WindowKBps(cfg.Window) * float64(len(cfg.Bits)) /
		float64((res.Attempt+1)*len(frame))
	return res, nil
}

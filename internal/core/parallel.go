package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// ParallelResult reports a multi-lane channel run: k trojan threads on
// distinct cores each drive their own eviction set (distinct agreed 512 B
// indexes, hence distinct MEE sets), and the single spy probes k monitor
// addresses per window — k bits per window.
type ParallelResult struct {
	Lanes      int
	Sent       []byte // interleaved lane-major per window
	Received   []byte
	BitErrors  int
	ErrorRate  float64
	KBps       float64 // aggregate
	LaneErrors []int
	// EvictionSetSizes per lane (diagnostics; 8 when Algorithm 1 is clean).
	EvictionSetSizes []int
	// ProbeTimes per transmitted bit (lane-major, like Sent/Received).
	ProbeTimes []sim.Cycles
}

// RunParallelChannel is the multi-lane extension of Algorithm 2 (future
// work beyond the paper): `lanes` trojan threads transmit concurrently.
// Bits are consumed lane-major per window: window i carries bits
// [i*lanes, (i+1)*lanes). Practical lane counts are 1–2 on the paper's
// 4-core part (the spy and noise need cores too). It arms no fault
// campaign and sends each bit once, and returns an error for a cfg that
// sets Fault or a Repetition above 1.
func RunParallelChannel(cfg ChannelConfig, lanes int) (*ParallelResult, error) {
	cfg.applyDefaults()
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	if lanes < 1 || lanes > 2 {
		return nil, fmt.Errorf("core: lanes must be 1 or 2 on a 4-core part, got %d", lanes)
	}
	if len(cfg.Bits)%lanes != 0 {
		return nil, fmt.Errorf("core: bit count %d not a multiple of lanes %d", len(cfg.Bits), lanes)
	}
	switch {
	case cfg.Fault != nil:
		return nil, errIgnored("the parallel channel", "Fault")
	case cfg.Repetition > 1:
		return nil, errIgnored("the parallel channel", "Repetition")
	}
	plat := cfg.boot()
	defer plat.Close()

	windows := len(cfg.Bits) / lanes
	tCalEnd := calBudget * sim.Cycles(lanes) // staggered calibrations
	tSetupEnd := tCalEnd + setupBudget
	tSearchEnd := tSetupEnd + searchBudget*sim.Cycles(lanes)
	t0 := tSearchEnd
	tEnd := t0 + sim.Cycles(windows)*cfg.Window

	spyProc := plat.NewProcess("pspy")
	// One disjoint calibration pool per lane: reusing blocks across the
	// lane calibrations would turn the second lane's miss samples into MEE
	// cache hits and collapse its threshold onto the hit mode.
	if _, err := spyProc.CreateEnclave(calPages*lanes + monitorCandidates); err != nil {
		return nil, err
	}

	res := &ParallelResult{Lanes: lanes, Sent: cfg.Bits, LaneErrors: make([]int, lanes), EvictionSetSizes: make([]int, lanes)}
	errs := make([]error, lanes+1)

	trojanCores := []int{0, 1}
	for lane := 0; lane < lanes; lane++ {
		lane := lane
		pr := plat.NewProcess(fmt.Sprintf("ptrojan%d", lane))
		if _, err := pr.CreateEnclave(calPages + evSetCandidates); err != nil {
			return nil, err
		}
		plat.SpawnThread(fmt.Sprintf("ptrojan%d", lane), pr, trojanCores[lane], func(th *platform.Thread) {
			th.EnterEnclave()
			base := pr.Enclave().Base
			index := agreedIndex + lane // distinct agreed index per lane
			th.SpinUntil(calBudget * sim.Cycles(lane))
			threshold := calibrateThreshold(th, pageAddrs(base, calPages, index))
			th.SpinUntil(tCalEnd)

			cands := pageAddrs(base+enclave.VAddr(calPages*enclave.PageBytes), evSetCandidates, index)
			a1, err := FindEvictionSet(th, cands, threshold)
			if err != nil {
				errs[lane] = fmt.Errorf("lane %d: %w", lane, err)
				return
			}
			evSet := a1.EvictionSet
			res.EvictionSetSizes[lane] = len(evSet)
			th.SpinUntil(tSetupEnd)
			// Burst only inside this lane's search slot so the spy can
			// attribute evictions to lanes.
			laneSlotStart := tSetupEnd + searchBudget*sim.Cycles(lane)
			th.SpinUntil(laneSlotStart)
			burstUntil(th, evSet, cfg.TwoPhaseEviction, laneSlotStart+searchBudget-20_000)
			for w := 0; w < windows; w++ {
				th.WaitTimer(t0 + sim.Cycles(w)*cfg.Window)
				if cfg.Bits[w*lanes+lane] == 1 {
					evictPass(th, evSet, cfg.TwoPhaseEviction)
				}
			}
		})
	}

	plat.SpawnThread("pspy", spyProc, 2, func(th *platform.Thread) {
		th.EnterEnclave()
		base := spyProc.Enclave().Base
		thresholds := make([]sim.Cycles, lanes)
		monitors := make([]enclave.VAddr, lanes)

		// Calibrate per lane index (one threshold suffices, but measure
		// against each index's pages to stay faithful).
		th.SpinUntil(tCalEnd / 2)
		for lane := 0; lane < lanes; lane++ {
			thresholds[lane] = calibrateThreshold(th, calSlice(base, lane, lanes, agreedIndex+lane))
		}
		th.SpinUntil(tSetupEnd)

		// Monitor discovery, one lane slot at a time.
		const samples = 8
		for lane := 0; lane < lanes; lane++ {
			th.SpinUntil(tSetupEnd + searchBudget*sim.Cycles(lane))
			cands := pageAddrs(base+enclave.VAddr(lanes*calPages*enclave.PageBytes), monitorCandidates, agreedIndex+lane)
			best, bestScore := findConflict(th, cands, thresholds[lane], samples, searchGap)
			if bestScore < samples*6/10 {
				errs[lanes] = fmt.Errorf("core: lane %d monitor discovery failed (%d/%d)", lane, bestScore, samples)
				return
			}
			monitors[lane] = best
		}

		th.WaitTimer(t0 - 5000)
		for _, m := range monitors {
			th.AccessFlush(m)
		}
		res.Received = make([]byte, len(cfg.Bits))
		res.ProbeTimes = make([]sim.Cycles, len(cfg.Bits))
		// Concurrent evictions contend in the memory system and finish
		// later than a single trojan's; probe later in the window than the
		// single-lane default.
		phase := cfg.ProbePhase
		if phase < 0.75 {
			phase = 0.75
		}
		probeOffset := sim.Cycles(float64(cfg.Window) * phase)
		for w := 0; w < windows; w++ {
			th.WaitTimer(t0 + sim.Cycles(w)*cfg.Window + probeOffset)
			for lane := 0; lane < lanes; lane++ {
				t := timedAccess(th, monitors[lane])
				th.Flush(monitors[lane])
				res.ProbeTimes[w*lanes+lane] = t
				if t > thresholds[lane] {
					res.Received[w*lanes+lane] = 1
				}
			}
		}
	})

	if err := spawnNoise(plat, cfg.Noise, 3, t0); err != nil {
		return nil, err
	}
	plat.Run(tEnd + cfg.Window)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	if res.Received == nil {
		return res, fmt.Errorf("core: parallel spy never completed")
	}
	wrong, rate := countErrors(res.Sent, res.Received)
	for _, pos := range wrong {
		res.LaneErrors[pos%lanes]++
	}
	res.BitErrors, res.ErrorRate = len(wrong), rate
	res.KBps = plat.WindowKBps(cfg.Window) * float64(lanes)
	return res, nil
}

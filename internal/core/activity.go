package core

import (
	"fmt"
	"sort"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// ActivityResult reports the side-channel-direction experiment: a spy
// inferring *when* a victim enclave is in a memory-intensive phase purely
// from the latency of the spy's own protected accesses. The victim's MEE
// traffic contends in the memory system and pollutes the shared MEE cache,
// so the spy's probe latencies rise during the victim's active phases —
// coarse-grained activity inference, the first step toward a full MEE-cache
// side channel (future work the paper's threat model hints at).
type ActivityResult struct {
	// Truth[i] is whether the victim was memory-active during epoch i.
	Truth []bool
	// Inferred[i] is the spy's classification of epoch i.
	Inferred []bool
	// Correct counts matching epochs.
	Correct int
	// Accuracy = Correct / len(Truth).
	Accuracy float64
	// QuietMean and ActiveMean are the spy's mean probe latencies per
	// class (diagnostics).
	QuietMean, ActiveMean float64
}

// InferActivity runs the experiment: the victim alternates compute phases
// (no memory traffic) and memory phases (protected-region streaming) of
// epochLen cycles; the spy samples its own enclave's probe latency and
// classifies each epoch against an adaptive threshold.
func InferActivity(opts Options, epochs int, epochLen sim.Cycles) (*ActivityResult, error) {
	if epochs < 4 {
		return nil, fmt.Errorf("core: need at least 4 epochs")
	}
	plat := opts.boot()
	defer plat.Close()

	victimProc := plat.NewProcess("victim")
	spyProc := plat.NewProcess("act-spy")
	const victimPages = 512
	if _, err := victimProc.CreateEnclave(victimPages); err != nil {
		return nil, err
	}
	if _, err := spyProc.CreateEnclave(8); err != nil {
		return nil, err
	}

	res := &ActivityResult{Truth: make([]bool, epochs)}
	// The victim's phase schedule derives from its own seed — the spy does
	// not know it.
	rng := plat.Engine().Rand()
	for i := range res.Truth {
		res.Truth[i] = rng.Float64() < 0.5
	}

	t0 := sim.Cycles(200_000)
	plat.SpawnThread("victim", victimProc, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		base := victimProc.Enclave().Base
		va := base
		for i := 0; i < epochs; i++ {
			end := t0 + sim.Cycles(i+1)*epochLen
			if !res.Truth[i] {
				th.SpinUntil(end) // compute phase: no memory traffic
				continue
			}
			for th.Now() < end { // memory phase: stream protected data
				th.Access(va)
				th.Flush(va)
				// 4 KB stride keeps the victim's integrity-tree walks deep
				// (fresh versions and L0 lines every access), the paper's
				// heavy-MEE-traffic pattern.
				va += enclave.PageBytes
				if va >= base+enclave.VAddr(victimPages*enclave.PageBytes) {
					va = base + (va-base)%enclave.PageBytes + 512
					if (va-base)%enclave.PageBytes == 0 {
						va = base
					}
				}
			}
		}
	})

	epochMeans := make([]float64, epochs)
	plat.SpawnThread("act-spy", spyProc, 2, func(th *platform.Thread) {
		th.EnterEnclave()
		probe := spyProc.Enclave().Base
		th.Access(probe)
		th.Flush(probe)
		for i := 0; i < epochs; i++ {
			end := t0 + sim.Cycles(i+1)*epochLen
			var sum, n int64
			for th.Now() < end-2000 {
				sum += int64(timedAccess(th, probe))
				th.Flush(probe)
				n++
				th.Spin(2000)
			}
			if n > 0 {
				epochMeans[i] = float64(sum) / float64(n)
			}
			th.SpinUntil(end)
		}
	})

	plat.Run(t0 + sim.Cycles(epochs+1)*epochLen)

	// Classify each epoch against the quiet baseline: the minimum epoch
	// mean is the spy's uncontended versions-hit latency (quiet epochs
	// cluster within a few cycles of it), and any epoch more than a fixed
	// contention margin above it is called active. Assumes at least one
	// quiet epoch in the observation span.
	sorted := append([]float64(nil), epochMeans...)
	sort.Float64s(sorted)
	const contentionMargin = 45
	threshold := sorted[0] + contentionMargin
	res.Inferred = make([]bool, epochs)
	var quietSum, activeSum float64
	var quietN, activeN int
	for i, m := range epochMeans {
		res.Inferred[i] = m > threshold
		if res.Inferred[i] == res.Truth[i] {
			res.Correct++
		}
		if res.Truth[i] {
			activeSum += m
			activeN++
		} else {
			quietSum += m
			quietN++
		}
	}
	if quietN > 0 {
		res.QuietMean = quietSum / float64(quietN)
	}
	if activeN > 0 {
		res.ActiveMean = activeSum / float64(activeN)
	}
	res.Accuracy = float64(res.Correct) / float64(epochs)
	return res, nil
}

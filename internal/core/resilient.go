package core

import (
	"bytes"
	"fmt"

	"meecc/internal/code"
	"meecc/internal/enclave"
	"meecc/internal/fault"
	"meecc/internal/obs"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// This file is the adaptive session layer on top of the raw Algorithm 2
// channel: a long-lived trojan/spy pair that transmits a payload in
// CRC-framed chunks, watches link health through pilot bits, and reacts to
// degradation with a bounded ladder of countermeasures — per-chunk
// retransmission, threshold re-calibration, a full re-acquisition
// (Algorithm 1 re-run plus monitor re-discovery) when the eviction set goes
// stale after EPC paging, and graceful degradation (window widening, then
// repetition coding). Every reaction is recorded in a DegradationReport.
//
// Coordination model: the spy is the controller. Both sides share a round
// plan out of band (the colluding-endpoints assumption every covert channel
// makes: the two ends agree on the protocol in advance); in the simulation
// the plan is a struct the spy writes strictly before each round boundary
// and the trojan reads strictly after it, which the engine's clock-ordered
// actor scheduling turns into a deterministic, race-free rendezvous.

// ActionKind labels one adaptation the session layer took.
type ActionKind int

const (
	// ActRetransmit reschedules chunks whose CRC failed.
	ActRetransmit ActionKind = iota
	// ActRecalibrate re-derives the spy's hit/miss threshold.
	ActRecalibrate
	// ActResync re-runs acquisition: the trojan rebuilds its eviction set
	// (Algorithm 1) and bursts while the spy re-discovers its monitor.
	ActResync
	// ActWidenWindow doubles the per-bit window.
	ActWidenWindow
	// ActRepetition raises the repetition-coding factor.
	ActRepetition
	// ActBackoff inserts an idle gap before the next round.
	ActBackoff
	// ActAbort gives up: the ladder is exhausted.
	ActAbort
)

func (k ActionKind) String() string {
	switch k {
	case ActRetransmit:
		return "retransmit"
	case ActRecalibrate:
		return "recalibrate"
	case ActResync:
		return "resync"
	case ActWidenWindow:
		return "widen-window"
	case ActRepetition:
		return "repetition"
	case ActBackoff:
		return "backoff"
	case ActAbort:
		return "abort"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one recorded adaptation.
type Action struct {
	Round  int
	At     sim.Cycles
	Kind   ActionKind
	Detail string
}

func (a Action) String() string {
	return fmt.Sprintf("round %d @%d %s: %s", a.Round, a.At, a.Kind, a.Detail)
}

// DegradationReport is the full history of what the session layer did and
// why — the evidence trail for "the payload arrived, but the link was ugly".
type DegradationReport struct {
	Actions []Action
	// Rounds is how many rounds ran (data + resync).
	Rounds int
	// PilotBER is the per-data-round pilot bit-error rate.
	PilotBER []float64
	// Retransmits counts chunk retransmissions; Recals and Resyncs count
	// their actions.
	Retransmits, Recals, Resyncs int
	// FinalWindow and FinalRepetition are the operating point at session end.
	FinalWindow     sim.Cycles
	FinalRepetition int
}

func (r *DegradationReport) add(round int, at sim.Cycles, kind ActionKind, format string, args ...any) {
	r.Actions = append(r.Actions, Action{Round: round, At: at, Kind: kind, Detail: fmt.Sprintf(format, args...)})
}

// Count returns how many actions of the given kind were taken.
func (r *DegradationReport) Count(kind ActionKind) int {
	n := 0
	for _, a := range r.Actions {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

// The session layer's operating constants.
const (
	// chunkBytes splits the payload into ARQ units.
	chunkBytes = 8
	// pilotLen is the number of known alternating bits opening each data
	// round; the spy estimates link health from them.
	pilotLen = 16
	// chunksPerRound bounds how many chunks one data round carries.
	chunksPerRound = 2
	// maxRounds bounds the session.
	maxRounds = 64
	// maxWindowFactor caps window widening at this multiple of the base
	// window.
	maxWindowFactor = 4
	// maxRepetition caps repetition coding (raised 1 -> 3 -> 5).
	maxRepetition = 5
	// maxChunkAttempts is how often one chunk may fail before the ladder
	// must degrade the operating point.
	maxChunkAttempts = 3
	// maxResyncs bounds Algorithm-1 re-runs.
	maxResyncs = 3
	// dropoutStale is the pilot dropout fraction (expected-1 bits seen as
	// 0) that declares the eviction set stale.
	dropoutStale = 0.6
	// pilotBad is the pilot BER above which the link counts as degraded.
	pilotBad = 0.25

	// resyncBudget is the cycle budget of one re-acquisition round: the
	// whole warm-up schedule, like initial setup.
	resyncBudget = calBudget + setupBudget + searchBudget
	// recalBudget is the extra round time reserved for a re-calibration.
	recalBudget sim.Cycles = 2_000_000
	// ctrlGap is the quiet tail of every round in which the spy commits the
	// next plan.
	ctrlGap sim.Cycles = 200_000
	// backoff0 and maxBackoff bound the idle gap inserted after rounds that
	// delivered nothing (exponential).
	backoff0   sim.Cycles = 500_000
	maxBackoff sim.Cycles = 8_000_000
)

// ResilientResult reports one adaptive session.
type ResilientResult struct {
	// Payload is the delivered payload (nil unless every chunk arrived
	// CRC-intact — the session never returns silently corrupt data).
	Payload   []byte
	Delivered bool
	Report    DegradationReport
	// GoodputKBps is payload bytes over the whole post-setup session time,
	// including pilots, retransmissions, resyncs, and backoff.
	GoodputKBps float64
	// BitsSent is every channel bit the trojan scheduled (pilots included).
	BitsSent int
	// Chunks and ChunksDelivered count the ARQ units.
	Chunks, ChunksDelivered int
	SpyThreshold            sim.Cycles
	EvictionSetSize         int
	SetupCycles             sim.Cycles
	// SessionCycles is total simulated time from transmission start to the
	// final round's end.
	SessionCycles sim.Cycles
	// Faults is the applied-fault log when a chaos campaign was armed.
	Faults []fault.Injected
}

// roundPlan is the shared schedule for one round. The spy writes it during
// the previous round's control gap; the trojan reads it at the boundary.
type roundPlan struct {
	seq    int
	start  sim.Cycles
	window sim.Cycles
	rep    int
	chunks []int
	resync bool
	recal  bool
	done   bool
	abort  bool
	reason string
}

// roundObs is what the spy observed in one executed round.
type roundObs struct {
	plan     roundPlan
	end      sim.Cycles // the executed round's boundary
	at       sim.Cycles // spy clock at decision time
	pilotErr float64
	dropout  float64
	decoded  map[int][]byte // chunk index -> CRC-intact payload
	failed   []int          // chunk indices whose CRC failed
	resyncOK bool
}

// controller is the spy-side decision logic: a pure state machine from
// round observations to round plans, kept free of simulation types in its
// transitions so the ladder is unit-testable without a platform.
type controller struct {
	chunkBits []int // encoded bits per chunk
	got       [][]byte
	attempts  []int
	window    sim.Cycles
	maxWindow sim.Cycles
	rep       int
	backoff   sim.Cycles
	resyncs   int
	rounds    int
	bitsSent  int
	report    DegradationReport

	// Degradation-ladder transition counters (nil when unobserved).
	cWiden *obs.Counter
	cRep   *obs.Counter
}

// newController starts the ladder at the base window.
func newController(window sim.Cycles, chunkSizes []int) *controller {
	codec := code.Codec{InterleaveDepth: 8}
	c := &controller{
		chunkBits: make([]int, len(chunkSizes)),
		got:       make([][]byte, len(chunkSizes)),
		attempts:  make([]int, len(chunkSizes)),
		window:    window,
		maxWindow: maxWindowFactor * window,
		rep:       1,
		backoff:   backoff0,
	}
	for i, n := range chunkSizes {
		c.chunkBits[i] = codec.EncodedBits(n)
	}
	return c
}

// observe surfaces the controller's session accounting: the ARQ/ladder
// totals as deferred samples over the report (read once, at snapshot time)
// and per-rung degradation counters incremented as the ladder moves. Safe
// with a nil observer.
func (c *controller) observe(o *obs.Observer) {
	if o == nil {
		return
	}
	o.Sample("arq.rounds", obs.Semantic, func() uint64 { return uint64(c.rounds) })
	o.Sample("arq.retransmits", obs.Semantic, func() uint64 { return uint64(c.report.Retransmits) })
	o.Sample("arq.bits_sent", obs.Semantic, func() uint64 { return uint64(c.bitsSent) })
	o.Sample("channel.recalibrations", obs.Semantic, func() uint64 { return uint64(c.report.Recals) })
	o.Sample("channel.resyncs", obs.Semantic, func() uint64 { return uint64(c.report.Resyncs) })
	c.cWiden = o.Counter("channel.degrade.widen_window")
	c.cRep = o.Counter("channel.degrade.repetition")
}

// pending returns undelivered chunk indices in order.
func (c *controller) pending() []int {
	var out []int
	for i, g := range c.got {
		if g == nil {
			out = append(out, i)
		}
	}
	return out
}

// roundEnd computes a plan's boundary — both endpoints derive it from the
// shared plan, so it needs no further coordination.
func (c *controller) roundEnd(p roundPlan) sim.Cycles {
	if p.resync {
		return p.start + resyncBudget + ctrlGap
	}
	bits := pilotLen
	for _, ci := range p.chunks {
		bits += c.chunkBits[ci]
	}
	end := p.start + sim.Cycles(bits*p.rep)*p.window + ctrlGap
	if p.recal {
		end += recalBudget
	}
	return end
}

// schedule fills a plan's chunk list from the pending set and accounts the
// bits the trojan will put on the channel.
func (c *controller) schedule(p *roundPlan) {
	pend := c.pending()
	if len(pend) > chunksPerRound {
		pend = pend[:chunksPerRound]
	}
	p.chunks = pend
	bits := pilotLen
	for _, ci := range pend {
		bits += c.chunkBits[ci]
	}
	c.bitsSent += bits * p.rep
}

// first builds the opening plan at transmission start.
func (c *controller) first(t0 sim.Cycles) roundPlan {
	p := roundPlan{seq: 1, start: t0, window: c.window, rep: c.rep}
	c.schedule(&p)
	return p
}

// abortPlan builds the terminal failure plan.
func (c *controller) abortPlan(at sim.Cycles, format string, args ...any) roundPlan {
	reason := fmt.Sprintf(format, args...)
	c.report.add(c.rounds, at, ActAbort, "%s", reason)
	return roundPlan{seq: -1, abort: true, reason: reason}
}

// degrade widens the window, then raises repetition. Returns false when the
// operating point is already at the floor.
func (c *controller) degrade(at sim.Cycles) bool {
	if c.window < c.maxWindow {
		c.window *= 2
		if c.window > c.maxWindow {
			c.window = c.maxWindow
		}
		c.report.add(c.rounds, at, ActWidenWindow, "window -> %d", c.window)
		c.cWiden.Inc()
		return true
	}
	if c.rep < maxRepetition {
		c.rep += 2
		if c.rep > maxRepetition {
			c.rep = maxRepetition
		}
		c.report.add(c.rounds, at, ActRepetition, "repetition -> %d", c.rep)
		c.cRep.Inc()
		return true
	}
	return false
}

// next is the ladder: fold one round's observations into state and emit the
// following plan.
func (c *controller) next(obs roundObs) roundPlan {
	c.rounds++
	round := c.rounds
	if !obs.plan.resync {
		c.report.PilotBER = append(c.report.PilotBER, obs.pilotErr)
	}

	// Fold in arrivals and retransmission bookkeeping.
	for idx, pl := range obs.decoded {
		if c.got[idx] == nil {
			c.got[idx] = pl
		}
	}
	if len(obs.failed) > 0 {
		for _, idx := range obs.failed {
			c.attempts[idx]++
		}
		c.report.Retransmits += len(obs.failed)
		c.report.add(round, obs.at, ActRetransmit, "chunks %v failed CRC", obs.failed)
	}
	if len(c.pending()) == 0 {
		return roundPlan{seq: obs.plan.seq + 1, done: true}
	}
	if c.rounds >= maxRounds {
		return c.abortPlan(obs.at, "round budget exhausted (%d rounds, %d/%d chunks)",
			c.rounds, len(c.got)-len(c.pending()), len(c.got))
	}

	next := roundPlan{seq: obs.plan.seq + 1}

	// Link-health ladder, most drastic condition first.
	switch {
	case obs.plan.resync && !obs.resyncOK:
		if c.resyncs >= maxResyncs {
			return c.abortPlan(obs.at, "re-acquisition failed %d times", c.resyncs)
		}
		c.resyncs++
		c.report.Resyncs++
		next.resync = true
		c.report.add(round, obs.at, ActResync, "retry: monitor score too low")

	case !obs.plan.resync && obs.dropout >= dropoutStale:
		if c.resyncs >= maxResyncs {
			return c.abortPlan(obs.at, "eviction set stale (dropout %.2f) and resync budget spent", obs.dropout)
		}
		c.resyncs++
		c.report.Resyncs++
		next.resync = true
		c.report.add(round, obs.at, ActResync, "pilot dropout %.2f: eviction set presumed stale", obs.dropout)

	case !obs.plan.resync && obs.pilotErr > pilotBad:
		if !obs.plan.recal {
			// Cheapest guess first: the threshold moved.
			next.recal = true
			c.report.Recals++
			c.report.add(round, obs.at, ActRecalibrate, "pilot BER %.2f", obs.pilotErr)
		} else if !c.degrade(obs.at) {
			return c.abortPlan(obs.at, "pilot BER %.2f at maximum degradation", obs.pilotErr)
		}

	default:
		// Healthy pilot but chunks can still fail (bursts between pilots);
		// degrade once a chunk has burned its attempt budget.
		for _, idx := range obs.failed {
			if c.attempts[idx] >= maxChunkAttempts {
				if !c.degrade(obs.at) {
					return c.abortPlan(obs.at, "chunk %d failed %d times at maximum degradation", idx, c.attempts[idx])
				}
				for i := range c.attempts {
					c.attempts[i] = 0
				}
				break
			}
		}
	}

	// Backoff: a round that moved nothing earns an idle gap (the hostile
	// condition may be transient); any progress resets it.
	gap := sim.Cycles(0)
	if !obs.plan.resync && len(obs.decoded) == 0 && len(obs.failed) > 0 {
		gap = c.backoff
		c.backoff *= 2
		if c.backoff > maxBackoff {
			c.backoff = maxBackoff
		}
		c.report.add(round, obs.at, ActBackoff, "idle %d cycles", gap)
	} else if len(obs.decoded) > 0 {
		c.backoff = backoff0
	}

	next.start = obs.end + gap
	next.window = c.window
	next.rep = c.rep
	if !next.resync {
		c.schedule(&next)
	}
	return next
}

// resilientSession is the shared rendezvous state between the two actors.
type resilientSession struct {
	plan roundPlan
}

// calSlice returns the n-th disjoint calibration pool so re-calibrations
// sample fresh 512 B blocks (a reused block's versions line may already be
// cached, biasing the miss estimate). Slices past the last allocated pool
// reuse the final one.
func calSlice(base enclave.VAddr, n, slices, index512 int) []enclave.VAddr {
	if n >= slices {
		n = slices - 1
	}
	return pageAddrs(base+enclave.VAddr(n*calPages*enclave.PageBytes), calPages, index512)
}

// calSlices is how many disjoint calibration pools each enclave carries:
// one for initial setup plus one per re-calibration/resync the ladder can
// plausibly take.
const calSlices = 6

// RunResilient transmits payload over the covert channel with the adaptive
// session layer. cfg supplies the machine, base window, probe phase,
// eviction mode, noise and fault campaign; its Bits and Repetition are
// ignored, as the payload defines the bits and the ladder the repetition.
// It either delivers the payload CRC-intact or returns an explicit error
// alongside the degradation report — never silent corruption.
func RunResilient(cfg ChannelConfig, payload []byte) (*ResilientResult, error) {
	cfg.applyDefaults()
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: resilient transfer of empty payload")
	}
	if len(payload) > code.MaxPayload {
		return nil, fmt.Errorf("core: payload %d exceeds %d bytes", len(payload), code.MaxPayload)
	}

	// Split into ARQ chunks and pre-encode on the trojan side.
	codec := code.Codec{InterleaveDepth: 8}
	var chunks [][]byte
	for off := 0; off < len(payload); off += chunkBytes {
		end := off + chunkBytes
		if end > len(payload) {
			end = len(payload)
		}
		chunks = append(chunks, payload[off:end])
	}
	encoded := make([][]byte, len(chunks))
	chunkSizes := make([]int, len(chunks))
	for i, ch := range chunks {
		bits, err := codec.Encode(ch)
		if err != nil {
			return nil, err
		}
		encoded[i] = bits
		chunkSizes[i] = len(ch)
	}

	// Initial acquisition is the channel session's warm phase, over
	// enclaves that carry calSlices calibration pools for the ladder.
	cfg.Bits, cfg.Repetition = nil, 0 // the payload defines the bits
	sess, err := prepareChannel(cfg)
	if err != nil {
		return nil, err
	}
	plat := cfg.boot()
	defer plat.Close()
	if err := sess.createProcs(plat, calSlices); err != nil {
		return nil, err
	}
	t0 := sess.t0
	trojanBase := sess.trojanProc.Enclave().Base
	spyBase := sess.spyProc.Enclave().Base

	ctl := newController(cfg.Window, chunkSizes)
	ctl.observe(cfg.Obs)
	s := &resilientSession{}
	res := &ResilientResult{Chunks: len(chunks)}
	var trojanDone, spyDone bool
	probeOffset := func(w sim.Cycles) sim.Cycles { return sim.Cycles(float64(w) * cfg.ProbePhase) }

	// ------------------------------------------------------------------
	// Trojan: initial acquisition, then plan-driven rounds.
	trojanTh := plat.SpawnThread("trojan", sess.trojanProc, trojanCore, func(th *platform.Thread) {
		defer func() { trojanDone = true }()
		ok := sess.trojanWarm(th)
		res.EvictionSetSize, res.SetupCycles = sess.res.EvictionSetSize, sess.res.SetupCycles
		if !ok {
			return
		}
		calUsed := 1
		lastSeq := 0
		for {
			p := s.plan
			if p.done || p.abort {
				return
			}
			if p.seq == lastSeq {
				// Timer drift carried us past the boundary before the spy
				// committed the next plan; poll until it lands.
				th.Spin(ctrlGap / 4)
				continue
			}
			lastSeq = p.seq
			end := ctl.roundEnd(p)
			if p.resync {
				// Re-acquisition: fresh threshold, Algorithm 1 re-run, then
				// burst so the spy can re-locate its monitor.
				th.WaitTimer(p.start)
				threshold := calibrateThreshold(th, calSlice(trojanBase, calUsed, calSlices, agreedIndex))
				calUsed++
				if a1, err := FindEvictionSet(th, sess.trojanCands, threshold); err == nil {
					sess.evSet = a1.EvictionSet
					sess.liveEvictionSet = sess.evSet
					res.EvictionSetSize = len(sess.evSet)
				}
				burstUntil(th, sess.evSet, cfg.TwoPhaseEviction, end-ctrlGap-20_000)
			} else {
				// Data round: pilot then scheduled chunks, each logical bit
				// over rep consecutive windows.
				bit := 0
				sendBit := func(b byte) {
					for r := 0; r < p.rep; r++ {
						th.WaitTimer(p.start + sim.Cycles(bit*p.rep+r)*p.window)
						if b == 1 {
							evictPass(th, sess.evSet, cfg.TwoPhaseEviction)
						}
					}
					bit++
				}
				for i := 0; i < pilotLen; i++ {
					sendBit(byte(i % 2))
				}
				for _, ci := range p.chunks {
					for _, b := range encoded[ci] {
						sendBit(b)
					}
				}
			}
			th.WaitTimer(end)
		}
	})

	// ------------------------------------------------------------------
	// Spy: initial acquisition, then controller-driven rounds.
	spyTh := plat.SpawnThread("spy", sess.spyProc, spyCore, func(th *platform.Thread) {
		defer func() { spyDone = true }()
		ok := sess.spyWarm(th)
		res.SpyThreshold = sess.spyThreshold
		if !ok {
			if sess.res.MonitorScore < minMonitorScore {
				s.plan = ctl.abortPlan(th.Now(), "initial monitor discovery failed (score %d/%d)", sess.res.MonitorScore, spySamples)
			} else {
				s.plan = ctl.abortPlan(th.Now(), "spy search overran budget")
			}
			return
		}
		threshold, monitor := sess.spyThreshold, sess.monitor
		calUsed := 1

		plan := ctl.first(t0)
		s.plan = plan
		for !plan.done && !plan.abort {
			end := ctl.roundEnd(plan)
			obs := roundObs{plan: plan, end: end, decoded: map[int][]byte{}}
			if plan.resync {
				// Re-calibrate while the trojan rebuilds, then re-discover
				// the monitor during its burst phase.
				th.WaitTimer(plan.start)
				threshold = calibrateThreshold(th, calSlice(spyBase, calUsed, calSlices, agreedIndex))
				calUsed++
				res.SpyThreshold = threshold
				th.SpinUntil(plan.start + resyncBudget - searchBudget)
				m, sc := findConflict(th, sess.spyCands, threshold, spySamples, searchGap)
				if obs.resyncOK = sc >= minMonitorScore; obs.resyncOK {
					monitor = m
					sess.liveMonitor = []enclave.VAddr{monitor}
				}
			} else {
				// Prime, then decode pilot + chunks with majority voting
				// over the repetition windows.
				th.WaitTimer(plan.start - 5000)
				th.Access(monitor)
				th.Flush(monitor)
				bit := 0
				readBit := func() byte {
					ones := 0
					for r := 0; r < plan.rep; r++ {
						th.WaitTimer(plan.start + sim.Cycles(bit*plan.rep+r)*plan.window + probeOffset(plan.window))
						if timedAccess(th, monitor) > threshold {
							ones++
						}
						th.Flush(monitor)
					}
					bit++
					if ones*2 > plan.rep {
						return 1
					}
					return 0
				}
				pilotErrs, ones, expOnes := 0, 0, 0
				for i := 0; i < pilotLen; i++ {
					want := byte(i % 2)
					got := readBit()
					if got != want {
						pilotErrs++
					}
					if want == 1 {
						expOnes++
						if got == 1 {
							ones++
						}
					}
				}
				obs.pilotErr = float64(pilotErrs) / float64(pilotLen)
				if expOnes > 0 {
					obs.dropout = float64(expOnes-ones) / float64(expOnes)
				}
				for _, ci := range plan.chunks {
					bits := make([]byte, ctl.chunkBits[ci])
					for j := range bits {
						bits[j] = readBit()
					}
					if pl, _, err := codec.Decode(bits); err == nil && len(pl) == chunkSizes[ci] {
						obs.decoded[ci] = pl
					} else {
						obs.failed = append(obs.failed, ci)
					}
				}
				if plan.recal {
					threshold = calibrateThreshold(th, calSlice(spyBase, calUsed, calSlices, agreedIndex))
					calUsed++
					res.SpyThreshold = threshold
				}
			}
			obs.at = th.Now()
			plan = ctl.next(obs)
			s.plan = plan
			if !plan.done && !plan.abort {
				res.SessionCycles = ctl.roundEnd(plan) - t0
				th.WaitTimer(plan.start - 10_000)
			} else {
				res.SessionCycles = end - t0
			}
		}
		if plan.abort {
			sess.spyErr = fmt.Errorf("core: resilient session aborted: %s", plan.reason)
		}
	})

	// ------------------------------------------------------------------
	// Environment: background noise and the chaos campaign.
	if err := spawnNoise(plat, cfg.Noise, noiseCore, t0); err != nil {
		return nil, err
	}
	maxRound := sim.Cycles(pilotLen+chunksPerRound*codec.EncodedBits(chunkBytes))*
		ctl.maxWindow*maxRepetition + recalBudget + ctrlGap + maxBackoff
	hardCap := t0 + maxRounds*maxRound + (maxResyncs+1)*(resyncBudget+ctrlGap)
	injector := sess.attachFaults(plat, trojanTh, spyTh, t0, hardCap)

	// Step the engine until both endpoints finish; immortal noise actors
	// would otherwise keep an unbounded Run busy forever.
	for limit := t0; !(trojanDone && spyDone) && limit < hardCap; {
		limit += 20_000_000
		plat.Run(limit)
	}

	if injector != nil {
		res.Faults = injector.Log()
	}
	res.Report = ctl.report
	res.Report.Rounds = ctl.rounds
	res.Report.FinalWindow = ctl.window
	res.Report.FinalRepetition = ctl.rep
	res.BitsSent = ctl.bitsSent
	for _, g := range ctl.got {
		if g != nil {
			res.ChunksDelivered++
		}
	}
	if res.SessionCycles > 0 {
		seconds := float64(res.SessionCycles) / plat.CyclesPerSecond()
		res.GoodputKBps = float64(len(payload)) / 1000 / seconds
	}

	if sess.trojanErr != nil {
		return res, sess.trojanErr
	}
	if sess.spyErr != nil {
		return res, sess.spyErr
	}
	if !(trojanDone && spyDone) {
		return res, fmt.Errorf("core: resilient session stalled (ran to hard cap at %d cycles)", hardCap)
	}
	if res.ChunksDelivered != res.Chunks {
		return res, fmt.Errorf("core: resilient session ended with %d/%d chunks delivered", res.ChunksDelivered, res.Chunks)
	}
	assembled := make([]byte, 0, len(payload))
	for _, g := range ctl.got {
		assembled = append(assembled, g...)
	}
	res.Payload = assembled
	res.Delivered = true
	if !bytes.Equal(assembled, payload) {
		// Every chunk passed CRC yet the content differs — a 2^-16-per-chunk
		// event worth surfacing loudly rather than returning bad data.
		res.Delivered = false
		res.Payload = nil
		return res, fmt.Errorf("core: resilient transfer CRC collision")
	}
	return res, nil
}

package platform

import (
	"testing"

	"meecc/internal/obs"
	"meecc/internal/sim"
)

// waitPoint is what a timer wait leaves behind when a Run returns: the
// waiter's clock, what Run reported, and the engine's op count, busy cycles
// and latest operation start (the sim.clock sample).
type waitPoint struct {
	waiter, run            sim.Cycles
	ops, busy, lastOpClock uint64
}

// waitCase is one timer wait: the waiter's start clock and deadline, its
// timer model (drift, jitter, a stall pending before it starts), the
// machine's timer resolution and read cost, the step of a peer spinning
// beside it, and the limit of the first Run.
type waitCase struct {
	start, deadline, drift, stall sim.Cycles
	jitter                        float64
	res, cost, peerStep, limit    sim.Cycles
}

// runWait runs wc on a fresh machine — to the limit, then to completion —
// with wait as the waiter's body; linear selects the reference scheduler.
func runWait(linear bool, wc waitCase, wait func(*Thread)) [2]waitPoint {
	sim.SetForceLinearSchedulerForTest(linear)
	defer sim.SetForceLinearSchedulerForTest(false)
	cfg := DefaultConfig(9)
	cfg.TimerResolution = float64(wc.res)
	cfg.TimerReadCost = float64(wc.cost)
	o := obs.NewObserver()
	cfg.Obs = o
	p := New(cfg)
	defer p.Close()
	pr := p.NewProcess("proc")
	waiter := p.SpawnThreadAt("waiter", pr, 0, wc.start, wait)
	waiter.AddTimerDrift(wc.drift)
	waiter.SetTimerJitter(wc.jitter)
	waiter.Preempt(wc.stall)
	p.SpawnThread("peer", pr, 1, func(th *Thread) {
		for i := 0; i < 64; i++ {
			th.Spin(wc.peerStep)
		}
	})
	var out [2]waitPoint
	for i, l := range []sim.Cycles{wc.limit, -1} {
		run := p.Run(l)
		c := o.Snapshot().Counters
		out[i] = waitPoint{waiter.Now(), run, c["sim.ops"], c["sim.busy_cycles"], c["sim.clock"]}
	}
	return out
}

// FuzzWaitTimer checks the timer-wait collapse against the poll loop it
// stands for. From a random start clock, deadline, timer drift, jitter,
// pending stall, resolution and read cost, with a Run limit that may fall
// mid-wait, WaitTimer under the heap scheduler (whole wait in one step
// when nothing perturbs the timer), WaitTimer under the linear scheduler
// (one poll per step) and a literal TimerNow loop must leave the waiter on
// the same clock with equal sim.ops and sim.busy_cycles, both when the
// limited Run returns and at the end.
func FuzzWaitTimer(f *testing.F) {
	f.Add(uint64(76_000_000), uint64(10_000), int64(0), uint16(35), uint16(50), uint64(0), uint16(700), uint16(0), uint16(0))
	f.Add(uint64(0), uint64(1), int64(3), uint16(1), uint16(0), uint64(1), uint16(1), uint16(0), uint16(0))
	f.Add(uint64(100), uint64(0), int64(-40), uint16(35), uint16(50), uint64(7), uint16(90), uint16(500), uint16(0))
	f.Add(uint64(35), uint64(60_000), int64(12), uint16(7), uint16(1), uint64(4_321), uint16(5_000), uint16(0), uint16(40))
	f.Fuzz(func(t *testing.T, clock, span uint64, drift int64, res, cost uint16, limit uint64, peer, stall, jitter uint16) {
		start := sim.Cycles(clock % (1 << 32))
		wc := waitCase{
			start: start,
			// Deadlines from 2000 cycles in the past to ~64k ahead keep
			// the poll-by-poll references short.
			deadline: start + sim.Cycles(span%(1<<16)) - 2000,
			drift:    sim.Cycles(drift % 4000),
			stall:    sim.Cycles(stall % 3000),
			jitter:   float64(jitter % 600),
			res:      sim.Cycles(res%250) + 1,
			cost:     sim.Cycles(cost % 120), // 0 exercises the one-cycle minimum
			peerStep: sim.Cycles(peer%4000) + 1,
			limit:    -1,
		}
		// Every fourth case runs unlimited; the rest stop somewhere between
		// just before the wait and well past its end.
		if limit%4 != 0 {
			wc.limit = start + sim.Cycles(limit%(1<<16)) - 100
		}
		poll := func(th *Thread) {
			for th.TimerNow() < wc.deadline {
			}
		}
		collapse := func(th *Thread) { th.WaitTimer(wc.deadline) }
		want := runWait(false, wc, poll)
		if got := runWait(false, wc, collapse); got != want {
			t.Fatalf("heap WaitTimer %+v, poll loop %+v", got, want)
		}
		if got := runWait(true, wc, collapse); got != want {
			t.Fatalf("linear WaitTimer %+v, poll loop %+v", got, want)
		}
	})
}

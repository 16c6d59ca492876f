package sim

import (
	"math/rand/v2"
	"runtime/debug"

	"meecc/internal/obs"
)

// Actor is one simulated thread of execution with its own cycle clock.
type Actor struct {
	name       string
	id         int
	clock      Cycles
	done       bool
	panicVal   any
	panicStack []byte
	engine     *Engine
	proc       *Proc
	heapIdx    int // position in the engine's scheduling heap; -1 if detached
	track      obs.TrackID

	// The body runs as a coroutine: next resumes it for one batch and
	// reports false once the body has returned; stop unwinds a suspended
	// body; suspend (the coroutine's yield) hands control back to the engine
	// loop and reports false when the engine is tearing the actor down.
	next    func() (struct{}, bool)
	stop    func()
	suspend func(struct{}) bool

	// Run-ahead state, written by the engine loop before it resumes the
	// actor and consumed by Proc.yield: the actor keeps executing operations
	// locally while its next operation is still scheduled before
	// (horizonClock, horizonID) and within runLimit. lastStart is the start
	// clock of the last committed operation, which Run reports; batchStart
	// is the clock at resume, for the tracer's batch slices.
	horizonClock Cycles
	horizonID    int
	runLimit     Cycles
	lastStart    Cycles
	batchStart   Cycles
}

// Name returns the actor's diagnostic name.
func (a *Actor) Name() string { return a.name }

// Clock returns the actor's local cycle clock.
func (a *Actor) Clock() Cycles { return a.clock }

// Done reports whether the actor's body has returned (or been killed).
func (a *Actor) Done() bool { return a.done }

// Proc returns the handle the actor's body runs with.
func (a *Actor) Proc() *Proc { return a.proc }

// start wraps body in the actor's coroutine. The body first runs when the
// engine resumes the actor; a body killed before that never runs at all.
// Panics other than the engine's kill sentinel are captured — value and
// actor-side stack — for Run to re-raise as a *PanicError.
func (a *Actor) start(body func(*Proc)) {
	a.next, a.stop = pull(func(suspend func(struct{}) bool) {
		a.suspend = suspend
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(killSentinel); !isKill {
					a.panicVal = r
					a.panicStack = debug.Stack()
				}
			}
		}()
		body(a.proc)
	})
}

// Proc is the handle an actor body uses to interact with simulated time.
// All methods must be called only from within that actor's body.
type Proc struct {
	actor *Actor
}

// Now returns the actor's local clock.
func (p *Proc) Now() Cycles { return p.actor.clock }

// Name returns the owning actor's name.
func (p *Proc) Name() string { return p.actor.name }

// Rand returns the engine-wide seeded random source.
func (p *Proc) Rand() *rand.Rand { return p.actor.engine.rng }

// Advance consumes n cycles of simulated time (minimum 1, so that a loop of
// zero-cost operations cannot stall the global clock) and yields to the
// engine. All shared-state mutation the actor performed since its previous
// yield is considered to have happened atomically at the pre-Advance clock.
func (p *Proc) Advance(n Cycles) {
	if n < 1 {
		n = 1
	}
	e := p.actor.engine
	e.cOps.Inc()
	e.cBusy.Add(uint64(n))
	p.actor.clock += n
	p.yield()
}

// AdvanceN commits n back-to-back operations of step cycles each (step
// minimum 1, n minimum 1) as one scheduling step and returns how many it
// committed; each counts as an operation exactly as n Advance(step) calls
// would. It is for operations with no effects — nothing another actor
// reads or writes, no random draws — so running the later ones ahead of
// other actors' operations is invisible. Only operations starting within
// the current Run limit execute, so a wait that straddles the limit
// commits a prefix and the caller resumes it on the next Run. The linear
// reference scheduler commits exactly one operation per call, which keeps
// it an op-by-op oracle for the collapse.
func (p *Proc) AdvanceN(step Cycles, n int) int {
	if step < 1 {
		step = 1
	}
	if n < 1 {
		n = 1
	}
	a := p.actor
	e := a.engine
	if e.linear {
		n = 1
	} else if a.runLimit >= 0 {
		// Operation i starts at clock+i*step; operation 0 is the one
		// already executing, admitted when the actor was scheduled.
		if fit := (a.runLimit-a.clock)/step + 1; fit < Cycles(n) {
			n = int(fit)
		}
	}
	e.cOps.Add(uint64(n))
	e.cBusy.Add(uint64(n) * uint64(step))
	a.lastStart = a.clock + Cycles(n-1)*step
	a.clock += Cycles(n) * step
	p.yield()
	return n
}

// SleepUntil advances the actor's clock to t (no-op plus a 1-cycle yield if
// t is in the past) — the busy-loop-until-deadline primitive from the
// paper's Algorithm 2.
func (p *Proc) SleepUntil(t Cycles) {
	d := t - p.actor.clock
	p.Advance(d)
}

// RunsAhead reports whether an operation of this actor starting at clock t
// would execute before any other actor runs: t is within the current Run
// limit and scheduled before the run-ahead horizon, so the yield that ends
// the operation before it keeps the actor running. Under the linear
// reference scheduler, whose horizon lies in the past, it is always false.
func (p *Proc) RunsAhead(t Cycles) bool {
	a := p.actor
	return (a.runLimit < 0 || t <= a.runLimit) && schedBefore(t, a.id, a.horizonClock, a.horizonID)
}

// yield ends the current operation. If the actor's next operation is still
// scheduled before every other live actor (the run-ahead horizon) and within
// the current Run limit, the actor continues executing locally. Otherwise
// its batch is over and it suspends back to the engine loop until resumed.
// If the engine is tearing down, the actor unwinds via the kill sentinel.
func (p *Proc) yield() {
	a := p.actor
	if a.engine.killed {
		panic(killSentinel{})
	}
	if c := a.clock; p.RunsAhead(c) {
		a.lastStart = c
		return
	}
	if !a.suspend(struct{}{}) {
		panic(killSentinel{})
	}
}

// Resource models a single-ported shared hardware unit using a busy-until
// clock. Acquiring it at time t for dur cycles returns how long the caller
// must stall before service begins; the resource is then reserved until
// service completes. This is how cross-core contention on the MEE and the
// memory controller arises in the simulation.
type Resource struct {
	busyUntil Cycles
}

// Acquire reserves the resource for dur cycles starting no earlier than t
// and returns the stall the caller experiences before service starts.
func (r *Resource) Acquire(t, dur Cycles) (stall Cycles) {
	start := t
	if r.busyUntil > start {
		stall = r.busyUntil - start
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	return stall
}

// BusyUntil returns the cycle at which the resource becomes free.
func (r *Resource) BusyUntil() Cycles { return r.busyUntil }

// ResumeResource reconstructs a Resource from a serialized busy-until clock,
// the inverse of BusyUntil for snapshot codecs.
func ResumeResource(busyUntil Cycles) Resource { return Resource{busyUntil: busyUntil} }

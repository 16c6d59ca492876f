package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync/atomic"

	"meecc/internal/obs"
)

// Cycles counts simulated CPU clock cycles. It is signed so that durations
// and differences can be computed without conversion gymnastics; the engine
// never lets simulated time go negative.
type Cycles int64

// maxCycles is the run-ahead horizon when an actor has no live peers.
const maxCycles = Cycles(math.MaxInt64)

// killSentinel is panicked inside an actor body when the engine tears the
// actor down; the actor's coroutine wrapper recovers it.
type killSentinel struct{}

// PanicError is what Engine.Run re-panics when an actor body panics: it
// carries the original panic value and the stack captured inside the actor
// body at the point of the panic, so callers recovering at the engine
// boundary (e.g. the experiment harness's trial guard) can report the real
// failure instead of a flattened string.
type PanicError struct {
	Actor string // name of the actor whose body panicked
	Value any    // the original panic value
	Stack []byte // stack of the actor body, captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: actor %q panicked: %v", e.Actor, e.Value)
}

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As reach through the engine boundary.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// forceLinear is a test hook: when set, new engines use the reference
// linear-scan scheduler (O(n) pick, no run-ahead batching) instead of the
// heap. Both schedulers execute operations in an identical global order;
// the hook exists so the cross-scheduler determinism tests can prove it.
var forceLinear atomic.Bool

// SetForceLinearSchedulerForTest makes every subsequently created engine
// use the pre-heap reference scheduler. Call with false to restore the
// default. Test hook only — it is process-global.
func SetForceLinearSchedulerForTest(v bool) { forceLinear.Store(v) }

// Engine is a deterministic discrete-event simulator. Actors are resumed one
// at a time in order of their local clocks, so all shared-state mutation is
// serialized and reproducible for a fixed seed.
type Engine struct {
	actors  []*Actor
	heap    []*Actor // live actors, indexed min-heap on (clock, spawn id)
	rng     *rand.Rand
	pcg     *rand.PCG // rng's source, retained so RNGSnapshot can serialize it
	running *Actor    // actor currently executing inside Run
	killed  bool
	closed  bool
	linear  bool // reference scheduler: linear scan, single-step resumes

	// Observability (all nil/zero when disabled; see Observe). cOps and
	// cBusy are schedule-invariant; cResumes and cTrunc count scheduler
	// mechanics and are registered as diagnostic.
	cOps     *obs.Counter
	cBusy    *obs.Counter
	cSpawns  *obs.Counter
	cResumes *obs.Counter
	cTrunc   *obs.Counter
	tracer   *obs.Tracer
	nBatch   obs.NameID
	nSpawn   obs.NameID
	lastNow  Cycles // latest start of any committed operation, for sampling
}

// NewEngine returns an engine whose random stream is derived from seed.
// The same seed always produces the same simulation.
func NewEngine(seed uint64) *Engine {
	pcg := rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
	return &Engine{
		rng:    rand.New(pcg),
		pcg:    pcg,
		linear: forceLinear.Load(),
	}
}

// RNGSnapshot serializes the engine's random-stream state. Because actors
// execute in a deterministic global order, the state after running to a
// quiescent point is itself deterministic; NewEngineResumed continues the
// stream exactly where this engine left off. rand/v2's Rand buffers nothing
// outside its source, so the PCG state is the complete stream state.
func (e *Engine) RNGSnapshot() []byte {
	state, err := e.pcg.MarshalBinary()
	if err != nil {
		// PCG.MarshalBinary cannot fail; keep the invariant loud.
		panic(fmt.Sprintf("sim: PCG marshal: %v", err))
	}
	return state
}

// NewEngineResumed returns a fresh engine (no actors, clock history empty)
// whose random stream continues from a state captured by RNGSnapshot.
// Spawning actors at their pre-capture clocks reproduces the schedule a
// single engine would have executed past the capture point.
func NewEngineResumed(rngState []byte) (*Engine, error) {
	pcg := &rand.PCG{}
	if err := pcg.UnmarshalBinary(rngState); err != nil {
		return nil, fmt.Errorf("sim: resuming RNG state: %w", err)
	}
	return &Engine{
		rng:    rand.New(pcg),
		pcg:    pcg,
		linear: forceLinear.Load(),
	}, nil
}

// Rand exposes the engine's seeded random source. Because actors execute in
// a deterministic order, draws from this source are reproducible as well.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Observe attaches an observer to the engine. Operation and busy-cycle
// counts are schedule-invariant; resume and horizon-truncation counts
// describe how the scheduler batched the same schedule and are diagnostic.
// When the observer carries a tracer, every resume batch is recorded as a
// slice on the owning actor's track. Safe to call with nil.
func (e *Engine) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	e.cOps = o.Counter("sim.ops")
	e.cBusy = o.Counter("sim.busy_cycles")
	e.cSpawns = o.Counter("sim.spawns")
	e.cResumes = o.DiagnosticCounter("sim.resumes")
	e.cTrunc = o.DiagnosticCounter("sim.horizon_truncations")
	o.Sample("sim.clock", obs.Semantic, func() uint64 { return uint64(e.lastNow) })
	o.Sample("sim.actors", obs.Semantic, func() uint64 { return uint64(len(e.actors)) })
	e.tracer = o.Tracer()
	e.nBatch = e.tracer.Name("batch")
	e.nSpawn = e.tracer.Name("spawn")
	for _, a := range e.actors {
		a.track = e.tracer.Track(a.name)
	}
}

// Spawn registers a new actor starting at cycle 0 and returns it. The body
// runs as a coroutine, resumed by the engine loop between Proc yield points
// and never concurrently with another actor.
func (e *Engine) Spawn(name string, body func(*Proc)) *Actor {
	return e.SpawnAt(name, 0, body)
}

// SpawnAt registers an actor whose first operation executes at cycle start.
func (e *Engine) SpawnAt(name string, start Cycles, body func(*Proc)) *Actor {
	if e.closed {
		panic("sim: Spawn on closed engine")
	}
	if start < 0 {
		start = 0
	}
	a := &Actor{
		name:    name,
		id:      len(e.actors),
		clock:   start,
		heapIdx: -1,
		engine:  e,
	}
	a.proc = &Proc{actor: a}
	e.actors = append(e.actors, a)
	e.heapPush(a)
	e.cSpawns.Inc()
	if e.tracer != nil {
		a.track = e.tracer.Track(name)
		e.tracer.Instant(a.track, e.nSpawn, int64(a.clock), int64(a.id))
	}
	// Spawn from inside a running actor body: the new actor may be due
	// before the runner's next operation, so shrink the runner's run-ahead
	// horizon to hand control back in time.
	if r := e.running; r != nil && schedBefore(a.clock, a.id, r.horizonClock, r.horizonID) {
		r.horizonClock, r.horizonID = a.clock, a.id
		e.cTrunc.Inc()
	}
	a.start(body)
	return a
}

// pickLinear is the reference O(n) scheduler: the live actor with the
// smallest clock, ties broken by spawn order. Kept (behind the
// SetForceLinearSchedulerForTest hook) as the oracle the heap scheduler is
// tested against.
func (e *Engine) pickLinear() *Actor {
	var best *Actor
	for _, a := range e.actors {
		if a.done {
			continue
		}
		if best == nil || a.clock < best.clock {
			best = a
		}
	}
	return best
}

// beginBatch arms a for a resume: run-ahead horizon, Run limit, batch
// bookkeeping. Valid only when a is the scheduled-first live actor, so
// heapSecond is the horizon owner.
func (e *Engine) beginBatch(a *Actor, limit Cycles) {
	if e.linear {
		// Horizon in the past: the actor parks after every operation.
		a.horizonClock, a.horizonID = -1, 0
	} else if h := e.heapSecond(); h != nil {
		a.horizonClock, a.horizonID = h.clock, h.id
	} else {
		a.horizonClock, a.horizonID = maxCycles, int(^uint(0)>>1)
	}
	a.runLimit = limit
	a.lastStart = a.clock
	a.batchStart = a.clock
	e.running = a
	e.cResumes.Inc()
}

// endBatch commits a's batch bookkeeping once its body stops executing
// operations: the tracer slice, the clock sample, and a's heap position.
// The sample keeps the latest operation start rather than the last batch's:
// a collapsed wait (Proc.AdvanceN) commits operations ahead of other
// actors' batches, and the maximum is what single-step order would report.
func (e *Engine) endBatch(a *Actor) {
	e.running = nil
	if e.tracer != nil {
		e.tracer.Slice(a.track, e.nBatch, int64(a.batchStart), int64(a.clock-a.batchStart))
	}
	if a.lastStart > e.lastNow {
		e.lastNow = a.lastStart
	}
	if a.done {
		e.heapRemove(a)
	} else {
		e.heapFix(a)
	}
}

// Run advances the simulation until every actor has finished or the next
// runnable actor's clock exceeds limit. A negative limit means "no limit"
// (run until all actors finish). It returns the latest start clock of the
// operations it executed. Run may be called repeatedly with growing limits;
// actors keep their state between calls.
//
// Each resume hands the chosen actor a run-ahead horizon — the schedule
// position of the next other live actor. The actor's coroutine executes
// operations locally for as long as it stays ahead of that horizon and
// within limit, then suspends back to this loop, which resumes the next-due
// actor. Because every operation with effects is committed in exactly the
// order the single-step scheduler would have chosen, the global order of
// shared-state mutations — and thus every artifact byte — is unchanged.
func (e *Engine) Run(limit Cycles) Cycles {
	if e.closed {
		panic("sim: Run on closed engine")
	}
	var now Cycles
	for {
		var a *Actor
		if e.linear {
			a = e.pickLinear()
		} else {
			a = e.heapMin()
		}
		if a == nil {
			break
		}
		if limit >= 0 && a.clock > limit {
			break
		}
		e.beginBatch(a, limit)
		if _, more := a.next(); !more {
			a.done = true
		}
		e.endBatch(a)
		now = max(now, a.lastStart)
		if a.panicVal != nil {
			pv, stack := a.panicVal, a.panicStack
			a.panicVal, a.panicStack = nil, nil
			panic(&PanicError{Actor: a.name, Value: pv, Stack: stack})
		}
	}
	return now
}

// Close kills every remaining actor and releases the engine. It is safe to
// call Close on an engine whose actors have all finished.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.killed = true
	for _, a := range e.actors {
		if !a.done {
			a.stop()
			a.done = true
		}
		e.heapRemove(a)
	}
	e.closed = true
}

// Live reports how many actors have not yet finished.
func (e *Engine) Live() int {
	n := 0
	for _, a := range e.actors {
		if !a.done {
			n++
		}
	}
	return n
}

// Actors returns the names of all actors, sorted, for diagnostics.
func (e *Engine) Actors() []string {
	names := make([]string, 0, len(e.actors))
	for _, a := range e.actors {
		names = append(names, a.name)
	}
	sort.Strings(names)
	return names
}

// Gauss draws a normal sample with the given mean and standard deviation,
// clamped to [mean-4*sigma, mean+4*sigma] and to a minimum of zero, rounded
// to whole cycles. It is the standard latency-jitter helper used by the
// timing models.
func Gauss(rng *rand.Rand, mean, sigma float64) Cycles {
	v := rng.NormFloat64()*sigma + mean
	lo, hi := mean-4*sigma, mean+4*sigma
	v = math.Max(lo, math.Min(hi, v))
	if v < 0 {
		v = 0
	}
	return Cycles(math.Round(v))
}

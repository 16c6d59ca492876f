package platform

import (
	"encoding/binary"
	"fmt"

	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/sim"
)

// Thread is one hardware thread executing on a core on behalf of a process.
// Its methods are the simulated "ISA" that attack code is written against;
// every method advances simulated time by the operation's cost.
type Thread struct {
	proc        *Process
	core        int
	sp          *sim.Proc // the actor running the thread's body
	enclaveMode bool

	// tlb is a host-side direct-mapped translation cache: pure memoization
	// of PageTable.Translate plus the (deterministic, latency-free) SGX
	// access checks. Entries validate against the page table's version
	// counter, so any Map — including Repage's remap — invalidates the
	// whole cache with no shootdown bookkeeping. ver==0 marks an empty
	// slot (page-table versions start at 1).
	tlb [tlbSlots]tlbEntry

	// Fault-injection state (see internal/fault). pendingStall is time the
	// thread has lost to an external event (preemption, page fault) that it
	// pays at its next instruction; timerDrift/timerJitter perturb this
	// thread's hyperthread-timer readings. These fields are written by
	// injector actors and read by this thread — safe because the engine
	// serializes actors. faultTarget records that an injector may write
	// them while the thread runs (see MarkFaultTarget).
	pendingStall sim.Cycles
	timerDrift   sim.Cycles
	timerJitter  float64
	faultTarget  bool
}

const tlbSlots = 64

type tlbEntry struct {
	page      enclave.VAddr // virtual page base
	pa        dram.Addr     // physical page base
	protected bool
	ver       uint64 // page-table version the entry was filled under; 0 = empty
}

// AccessResult reports what one memory access did, for instrumentation.
// In-universe code may only use Lat (which it would observe via timers);
// CacheLevel/MEEHit are ground truth available to the experiment harness.
type AccessResult struct {
	Lat        sim.Cycles
	CacheLevel cpucache.Level
	WentToMEE  bool
	MEEHit     mee.HitLevel
}

// SpawnThread starts a thread of pr pinned to core, running body. The body
// executes under the simulation engine like any actor. The returned Thread
// is the same handle the body receives — callers keep it to target the
// thread with fault injection.
func (p *Platform) SpawnThread(name string, pr *Process, core int, body func(*Thread)) *Thread {
	return p.SpawnThreadAt(name, pr, core, 0, body)
}

// SpawnThreadAt is SpawnThread with a start cycle.
func (p *Platform) SpawnThreadAt(name string, pr *Process, core int, start sim.Cycles, body func(*Thread)) *Thread {
	if core < 0 || core >= Cores {
		panic(fmt.Sprintf("platform: core %d out of range", core))
	}
	th := &Thread{proc: pr, core: core}
	th.sp = p.eng.SpawnAt(name, start, func(*sim.Proc) { body(th) }).Proc()
	return th
}

// ThreadState is the portable execution state of a thread at a quiescent
// point (its actor has finished and the next one will be spawned later,
// possibly on a forked platform). It deliberately excludes the simulated
// clock — the caller decides the resume cycle — and the owning process,
// which is re-bound by index on the target platform.
type ThreadState struct {
	Core         int
	EnclaveMode  bool
	PendingStall sim.Cycles
	TimerDrift   sim.Cycles
	TimerJitter  float64
}

// State captures the thread's portable execution state for ResumeThread.
func (t *Thread) State() ThreadState {
	return ThreadState{
		Core:         t.core,
		EnclaveMode:  t.enclaveMode,
		PendingStall: t.pendingStall,
		TimerDrift:   t.timerDrift,
		TimerJitter:  t.timerJitter,
	}
}

// ResumeThread spawns a thread of pr at cycle `start` carrying saved state:
// it begins already in enclave mode if the original was (no EnterExitCost
// is charged — the original paid it), with pending stalls and timer
// perturbations restored. This is how warm-state forks continue a thread on
// a forked platform: capture State() when the warm actor finishes, Fork the
// platform, then ResumeThread the continuation at the same cycle.
func (p *Platform) ResumeThread(name string, pr *Process, start sim.Cycles, st ThreadState, body func(*Thread)) *Thread {
	th := p.SpawnThreadAt(name, pr, st.Core, start, body)
	th.enclaveMode = st.EnclaveMode
	th.pendingStall = st.PendingStall
	th.timerDrift = st.TimerDrift
	th.timerJitter = st.TimerJitter
	return th
}

// Core returns the core this thread is currently scheduled on.
func (t *Thread) Core() int { return t.core }

// SetCore migrates the thread to another physical core (scheduler
// migration). The thread keeps running; its subsequent accesses see that
// core's private L1/L2, so previously warm lines miss. Callers model the
// scheduling cost separately via Preempt.
func (t *Thread) SetCore(core int) {
	if core < 0 || core >= Cores {
		panic(fmt.Sprintf("platform: SetCore %d out of range", core))
	}
	t.core = core
}

// Preempt charges the thread `stall` cycles of lost time (AEX, scheduler
// latency, page-fault handling). Stalls from multiple events accumulate and
// are paid, as one extra operation, by the thread's next Access, ReadU64,
// WriteU64, Flush, TimerNow or Rdtsc. Spin, SpinUntil, Mfence, enclave
// transitions and OCallRdtsc neither pay nor absorb a pending stall: a
// thread preempted while spinning still pays the full stall at its next
// memory access or timer read, on top of the spin.
func (t *Thread) Preempt(stall sim.Cycles) {
	if stall > 0 {
		t.pendingStall += stall
	}
}

// AddTimerDrift skews this thread's hyperthread-timer readings by d
// (cumulative): the helper thread publishing timestamps has fallen behind
// (d < 0) or the reader's view runs ahead (d > 0).
func (t *Thread) AddTimerDrift(d sim.Cycles) { t.timerDrift += d }

// SetTimerJitter sets the ± bound of uniform noise on every subsequent
// hyperthread-timer reading (0 disables).
func (t *Thread) SetTimerJitter(j float64) { t.timerJitter = j }

// MarkFaultTarget records that another actor (a fault injector) may call
// Preempt, AddTimerDrift or SetTimerJitter on this thread while it runs.
// WaitTimer then polls the timer read by read instead of collapsing the
// wait, because a mid-wait stall or timer change must land on the poll it
// would hit.
func (t *Thread) MarkFaultTarget() { t.faultTarget = true }

// payStall consumes any pending preemption stall before an instruction.
func (t *Thread) payStall() {
	if t.pendingStall > 0 {
		d := t.pendingStall
		t.pendingStall = 0
		t.sp.Advance(d)
	}
}

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Now returns simulator-internal time. In-universe code cannot read this
// (that is the whole point of challenge 4); it exists for harness
// instrumentation and tests.
func (t *Thread) Now() sim.Cycles { return t.sp.Now() }

// InEnclave reports whether the thread is in enclave mode.
func (t *Thread) InEnclave() bool { return t.enclaveMode }

// EnterEnclave switches to enclave mode (EENTER).
func (t *Thread) EnterEnclave() {
	if t.proc.encl == nil {
		panic(fmt.Sprintf("platform: process %s has no enclave", t.proc.name))
	}
	if t.enclaveMode {
		panic("platform: nested EnterEnclave")
	}
	t.enclaveMode = true
	t.sp.Advance(EnterExitCost)
}

// ExitEnclave leaves enclave mode (EEXIT).
func (t *Thread) ExitEnclave() {
	if !t.enclaveMode {
		panic("platform: ExitEnclave outside enclave")
	}
	t.enclaveMode = false
	t.sp.Advance(EnterExitCost)
}

// translate resolves va, enforcing SGX access control: EPC pages are only
// reachable from enclave mode by their owning enclave. The result is
// memoized in the thread's tlb: translation and EPCM ownership can only
// change through PageTable.Map (Repage remaps bump the version, spoiling
// every cached entry), so a version-valid hit may skip both lookups. The
// abort-page check is mode-dependent and re-applied on every hit.
func (t *Thread) translate(va enclave.VAddr) (dram.Addr, bool) {
	page := va &^ (enclave.PageBytes - 1)
	slot := &t.tlb[(page/enclave.PageBytes)%tlbSlots]
	if slot.ver == t.proc.pt.Version() && slot.page == page {
		if slot.protected && !t.enclaveMode {
			panic(fmt.Sprintf("platform: %s: abort-page access to EPC from non-enclave mode (VA %#x)", t.proc.name, va))
		}
		return slot.pa + dram.Addr(va-page), slot.protected
	}
	pa, ok := t.proc.pt.Translate(va)
	if !ok {
		panic(fmt.Sprintf("platform: %s: fault at unmapped VA %#x", t.proc.name, va))
	}
	p := t.proc.plat
	protected := p.mee.Geometry().ContainsData(pa)
	if protected {
		if !t.enclaveMode {
			panic(fmt.Sprintf("platform: %s: abort-page access to EPC from non-enclave mode (VA %#x)", t.proc.name, va))
		}
		if owner := p.epc.Owner(pa); t.proc.encl == nil || owner != t.proc.encl.ID {
			panic(fmt.Sprintf("platform: %s: EPCM violation at VA %#x (owner %d)", t.proc.name, va, owner))
		}
	}
	*slot = tlbEntry{page: page, pa: pa - dram.Addr(va-page), protected: protected, ver: t.proc.pt.Version()}
	return pa, protected
}

// access is the common read/write path: CPU caches first, then the memory
// system (MEE walk for protected lines, plain DRAM otherwise).
func (t *Thread) access(va enclave.VAddr, write bool) AccessResult {
	t.payStall()
	pa, protected := t.translate(va)
	p := t.proc.plat
	rng := p.rng
	now := t.sp.Now()

	lvl, lat := p.caches.Access(t.core, pa, write)
	res := AccessResult{CacheLevel: lvl}
	if lvl == cpucache.Miss {
		if protected {
			plain, mlat, hit, err := p.mee.ReadData(now+lat, rng, pa)
			if err != nil {
				panic(fmt.Sprintf("platform: %s: %v", t.proc.name, err))
			}
			lat += mlat
			res.WentToMEE, res.MEEHit = true, hit
			t.writebackVictim(now+lat, p.caches.Fill(t.core, pa, plain, write))
		} else {
			lat += p.mem.Access(now+lat, rng, pa, false)
			line := p.mem.ReadLine(pa)
			t.writebackVictim(now+lat, p.caches.Fill(t.core, pa, line, write))
		}
	}
	// Ambient system interference: occasional latency spikes. Exposure is
	// proportional to how long the operation is in flight (an SMI or
	// preemption is likelier to land in a 500-cycle DRAM access than in a
	// 4-cycle L1 hit); SpikeProb is calibrated at a 500-cycle op.
	if p.cfg.SpikeProb > 0 {
		exposure := p.cfg.SpikeProb * float64(lat) / 500
		if exposure > p.cfg.SpikeProb {
			exposure = p.cfg.SpikeProb
		}
		if rng.Float64() < exposure {
			lat += sim.Cycles(rng.Float64() * p.cfg.SpikeMax)
		}
	}
	res.Lat = lat
	t.sp.Advance(lat)
	return res
}

// writebackVictim pushes an evicted dirty line back to memory: protected
// lines re-encrypt through the MEE (version bump), general lines write to
// DRAM. The traffic is posted — it occupies the memory system but does not
// delay this thread.
func (t *Thread) writebackVictim(now sim.Cycles, v *cpucache.Victim) {
	if v == nil || !v.Dirty {
		return
	}
	p := t.proc.plat
	if p.mee.Geometry().ContainsData(v.Addr) {
		if _, _, err := p.mee.WriteData(now, p.rng, v.Addr, v.Data); err != nil {
			panic(fmt.Sprintf("platform: writeback: %v", err))
		}
		return
	}
	p.mem.WriteLine(v.Addr, v.Data)
	_ = p.mem.Access(now, p.rng, v.Addr, true)
}

// Access touches va (a load whose value is ignored) and returns timing and
// instrumentation. This is the probe primitive of all the attacks.
func (t *Thread) Access(va enclave.VAddr) AccessResult {
	return t.access(va, false)
}

// ReadU64 loads eight bytes at va (must not cross a cache line).
func (t *Thread) ReadU64(va enclave.VAddr) (uint64, AccessResult) {
	if va%64 > 56 {
		panic("platform: ReadU64 crosses a cache line")
	}
	res := t.access(va, false)
	pa, _ := t.proc.pt.Translate(va)
	buf := t.proc.plat.caches.Data(pa)
	return binary.LittleEndian.Uint64(buf[pa%64:]), res
}

// WriteU64 stores eight bytes at va (must not cross a cache line).
func (t *Thread) WriteU64(va enclave.VAddr, val uint64) AccessResult {
	if va%64 > 56 {
		panic("platform: WriteU64 crosses a cache line")
	}
	res := t.access(va, true)
	pa, _ := t.proc.pt.Translate(va)
	buf := t.proc.plat.caches.Data(pa)
	binary.LittleEndian.PutUint64(buf[pa%64:], val)
	return res
}

// Flush executes clflush on va's line: evicted from every CPU cache level
// (writing back if dirty) but — critically — not from the MEE cache.
func (t *Thread) Flush(va enclave.VAddr) {
	t.payStall()
	pa, _ := t.translate(va)
	p := t.proc.plat
	victim, lat := p.caches.Flush(pa)
	t.writebackVictim(t.sp.Now()+lat, victim)
	t.sp.Advance(lat)
}

// Mfence orders memory operations (small fixed cost; ordering is implicit
// in the serialized simulation).
func (t *Thread) Mfence() { t.sp.Advance(20) }

// Rdtsc returns the exact cycle counter — but faults in enclave mode, as on
// SGX1 hardware (challenge 4). Use TimerNow or OCallRdtsc inside enclaves.
func (t *Thread) Rdtsc() sim.Cycles {
	if t.enclaveMode {
		panic("platform: rdtsc #UD in enclave mode (SGX1)")
	}
	t.payStall()
	now := t.sp.Now()
	t.sp.Advance(RdtscCost)
	return now
}

// TimerNow reads the hyperthread timer (Figure 2(c)): a sibling thread
// outside the enclave continuously stores rdtsc values to shared
// non-enclave memory, which this thread loads directly. The reading is
// quantized to the timer thread's update period and costs ~50 cycles.
func (t *Thread) TimerNow() sim.Cycles {
	t.payStall()
	p := t.proc.plat
	res := sim.Cycles(p.cfg.TimerResolution)
	val := t.sp.Now()/res*res + t.timerDrift
	if t.timerJitter > 0 {
		val += sim.Cycles((p.rng.Float64()*2 - 1) * t.timerJitter)
	}
	t.sp.Advance(sim.Cycles(p.cfg.TimerReadCost))
	return val
}

// OCallRdtsc models executing rdtsc via an OCALL (Figure 2(b)): the enclave
// exits, reads the TSC, and re-enters, costing 8000–15000 cycles. The
// returned value is exact but stale by roughly half the call overhead.
func (t *Thread) OCallRdtsc() sim.Cycles {
	if !t.enclaveMode {
		panic("platform: OCallRdtsc outside enclave")
	}
	p := t.proc.plat
	span := enclave.OCallMaxCycles - enclave.OCallMinCycles
	dur := sim.Cycles(enclave.OCallMinCycles + p.rng.Float64()*float64(span))
	val := t.sp.Now() + dur/2
	t.sp.Advance(dur)
	return val
}

// Spin busy-loops for n cycles.
func (t *Thread) Spin(n sim.Cycles) { t.sp.Advance(n) }

// SpinUntil busy-loops until simulated cycle `deadline` (in-universe code
// implements this by polling TimerNow; the cost model is identical).
func (t *Thread) SpinUntil(deadline sim.Cycles) { t.sp.SleepUntil(deadline) }

// WaitTimer busy-polls the hyperthread timer until it reads at least
// deadline — Algorithm 2's "busy loop for remaining time" when rdtsc is
// unavailable — one TimerNow per poll. When no other actor can change what
// the polls read (no pending stall, no timer jitter, which draws from the
// shared random stream, and no fault injector aimed at the thread), every
// poll's reading is known in advance, so the whole loop is committed as one
// scheduling step through sim.Proc.AdvanceN: the same final clock and the
// same operation and busy-cycle counts as polling.
func (t *Thread) WaitTimer(deadline sim.Cycles) {
	for {
		if t.pendingStall != 0 || t.timerJitter != 0 || t.faultTarget {
			if t.TimerNow() >= deadline {
				return
			}
			continue
		}
		cfg := &t.proc.plat.cfg
		step := max(sim.Cycles(cfg.TimerReadCost), 1)
		n := timerPolls(t.sp.Now(), deadline-t.timerDrift, sim.Cycles(cfg.TimerResolution), step)
		// A shorter commit means the Run limit fell mid-wait (or the linear
		// scheduler stepped one poll): re-plan from the new clock.
		if t.sp.AdvanceN(step, n) == n {
			return
		}
	}
}

// timerPolls counts the polls of a wait that starts at clock c: poll i
// reads the timer quantized to res at c+i*step, and the first reading at or
// past deadline ends the wait. With q the first multiple of res at or past
// deadline, that is the first poll made at a clock at or past q. (When
// deadline <= 0, q <= 0 and the first poll ends the wait.)
func timerPolls(c, deadline, res, step sim.Cycles) int {
	q := (deadline + res - 1) / res * res
	if c >= q {
		return 1
	}
	return int((q-c+step-1)/step) + 1
}

package fault

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/obs"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// Targets binds a plan's abstract events to concrete session state. Nil
// threads and empty page lists cause the matching events to be skipped (and
// logged as skipped), so a plan can be armed before both endpoints exist.
type Targets struct {
	// Trojan and Spy are the endpoint threads events are charged to.
	Trojan, Spy *platform.Thread
	// TrojanProc and SpyProc own the enclaves whose pages Paging events hit.
	TrojanProc, SpyProc *platform.Process
	// TrojanPages and SpyPages are the candidate pages (the eviction-set
	// pool) a Paging event may relocate.
	TrojanPages, SpyPages []enclave.VAddr
	// TrojanLive and SpyLive, when set, supply the endpoint's *current*
	// working set (eviction set, monitor page) at event-application time;
	// a non-empty result takes precedence over the static page lists. This
	// models the worst case — memory pressure paging out exactly the pages
	// carrying the channel — while keeping the plan itself pure: the closure
	// reads actor state, and the engine serializes that read with the
	// owning actor's writes.
	TrojanLive, SpyLive func() []enclave.VAddr
	// TrojanHome and SpyHome are the pinned cores migration bounces return
	// to.
	TrojanHome, SpyHome int
	// StormCore is where the noise-storm enclave runs.
	StormCore int
}

func (tg Targets) thread(t Target) *platform.Thread {
	if t == TargetTrojan {
		return tg.Trojan
	}
	return tg.Spy
}

// Injected is one applied (or skipped) fault, for reports and tests.
type Injected struct {
	At     sim.Cycles
	Kind   Kind
	Target Target
	Note   string
}

func (i Injected) String() string {
	return fmt.Sprintf("%d %s/%s %s", i.At, i.Kind, i.Target, i.Note)
}

// Injector is an armed plan. Its log fills in as the simulation runs; read
// it only when the engine is idle (after Run returns).
type Injector struct {
	plan *Plan
	tg   Targets
	log  []Injected

	// Observability (nil when disabled): per-kind applied/skipped counters
	// and instants on a dedicated "faults" timeline track, so a degradation
	// event in the channel metrics can be lined up with the exact fault that
	// caused it.
	o       *obs.Observer
	tr      *obs.Tracer
	faultTk obs.TrackID
}

// Log returns the applied-fault log in application order.
func (in *Injector) Log() []Injected { return in.log }

// Counts returns how many events of each kind were applied (not skipped).
func (in *Injector) Counts() map[Kind]int {
	out := make(map[Kind]int)
	for _, i := range in.log {
		if i.Note != "" && i.Note[0] == '!' {
			continue
		}
		out[i.Kind]++
	}
	return out
}

func (in *Injector) record(at sim.Cycles, k Kind, t Target, format string, args ...any) {
	note := fmt.Sprintf(format, args...)
	in.log = append(in.log, Injected{At: at, Kind: k, Target: t, Note: note})
	if in.o == nil {
		return
	}
	if len(note) > 0 && note[0] == '!' {
		in.o.Counter("fault.skipped").Inc()
		return
	}
	in.o.Counter("fault.applied." + k.String()).Inc()
	if in.tr != nil {
		in.tr.Instant(in.faultTk, in.tr.Name("fault."+k.String()), int64(at), int64(k))
	}
}

// Attach arms the plan on a booted platform: one injector actor walks the
// event schedule, and a co-tenant enclave actor runs the storm windows. Both
// actors terminate after their last event, so an attached plan never keeps
// the engine alive past the configured window. Threads the events stall or
// perturb are marked with Thread.MarkFaultTarget.
func (p *Plan) Attach(plat *platform.Platform, tg Targets) *Injector {
	in := &Injector{plan: p, tg: tg}
	if o := plat.Obs(); o != nil {
		in.o = o
		if in.tr = o.Tracer(); in.tr != nil {
			in.faultTk = in.tr.Track("faults")
		}
	}
	if len(p.Events) > 0 {
		events := p.Events
		// The injector is the only actor that stalls a thread or moves its
		// timer: tell every thread an event will hit, so its timer waits
		// poll read by read instead of collapsing.
		for _, ev := range events {
			switch ev.Kind {
			case Migration, Timer, Paging:
				if th := tg.thread(ev.Target); th != nil {
					th.MarkFaultTarget()
				}
			}
		}
		plat.Engine().SpawnAt("fault-injector", events[0].At, func(sp *sim.Proc) {
			for _, ev := range events {
				sp.SleepUntil(ev.At)
				in.apply(sp, plat, ev)
			}
		})
	}
	if len(p.Storm) > 0 {
		in.spawnStorm(plat)
	}
	return in
}

// apply executes one event against live state. Skips (missing thread, empty
// page list, Repage failure) are logged with a leading "!" note rather than
// panicking — a chaos layer must not be able to crash the experiment.
func (in *Injector) apply(sp *sim.Proc, plat *platform.Platform, ev Event) {
	now := sp.Now()
	tg := in.tg
	switch ev.Kind {
	case Migration:
		th := tg.thread(ev.Target)
		if th == nil {
			in.record(now, ev.Kind, ev.Target, "!no thread")
			return
		}
		var dest int
		if ev.Home {
			dest = tg.TrojanHome
			if ev.Target == TargetSpy {
				dest = tg.SpyHome
			}
		} else {
			dest = pickOther(th.Core(), ev.Pick)
		}
		from := th.Core()
		th.SetCore(dest)
		th.Preempt(ev.Stall)
		in.record(now, ev.Kind, ev.Target, "core %d->%d stall %d", from, dest, ev.Stall)

	case Timer:
		th := tg.thread(ev.Target)
		if th == nil {
			in.record(now, ev.Kind, ev.Target, "!no thread")
			return
		}
		if ev.Jitter > 0 {
			th.SetTimerJitter(ev.Jitter)
			in.record(now, ev.Kind, ev.Target, "jitter %.0f", ev.Jitter)
		}
		if ev.Drift != 0 {
			th.AddTimerDrift(ev.Drift)
			in.record(now, ev.Kind, ev.Target, "drift %+d", ev.Drift)
		}

	case Paging:
		th := tg.thread(ev.Target)
		proc, pages, live := tg.TrojanProc, tg.TrojanPages, tg.TrojanLive
		if ev.Target == TargetSpy {
			proc, pages, live = tg.SpyProc, tg.SpyPages, tg.SpyLive
		}
		if live != nil {
			if cur := live(); len(cur) > 0 {
				pages = cur
			}
		}
		if proc == nil || len(pages) == 0 {
			in.record(now, ev.Kind, ev.Target, "!no pages")
			return
		}
		va := pages[pickIndex(len(pages), ev.Pick)]
		if err := plat.Repage(proc, va, now); err != nil {
			in.record(now, ev.Kind, ev.Target, "!repage: %v", err)
			return
		}
		if th != nil {
			th.Preempt(ev.Stall)
		}
		in.record(now, ev.Kind, ev.Target, "repage va %#x stall %d", va, ev.Stall)

	case MEEFlush:
		plat.MEE().FlushCache(now, plat.Engine().Rand())
		in.record(now, ev.Kind, ev.Target, "mee cache flushed")

	default:
		in.record(now, ev.Kind, ev.Target, "!unknown kind")
	}
}

// pickOther maps a [0,1) draw to a core of the machine other than cur.
func pickOther(cur int, pick float64) int {
	d := pickIndex(platform.Cores-1, pick)
	if d >= cur {
		d++
	}
	return d
}

// pickIndex maps a [0,1) draw to an index in [0,n).
func pickIndex(n int, pick float64) int {
	i := int(pick * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// stormPages is one storm thread's working set (2 MB of protected memory —
// enough to stream distinct versions lines, small next to the EPC).
const stormPages = 512

// maxStormThreads caps the storm's thread fan-out.
const maxStormThreads = 8

// spawnStorm starts the bursty co-tenants: enclave threads streaming
// protected memory at 4 KB stride (the Figure 8(d) worst case, churning
// versions and L0 lines) during each on-window, idle between bursts.
//
// Intensity scales the number of streaming threads: a single co-tenant can
// only insert a handful of versions lines per bit window (bounded by MEE
// walk latency), which the channel shrugs off — exactly the paper's Figure 8
// result. Several co-tenants multiply the insertion rate into every MEE
// cache set and saturate the single-ported MEE, which is what actually
// breaks the channel.
func (in *Injector) spawnStorm(plat *platform.Platform) {
	threads := int(in.plan.Config.Intensity + 0.5)
	if threads < 1 {
		threads = 1
	}
	if threads > maxStormThreads {
		threads = maxStormThreads
	}
	pr := plat.NewProcess("fault-storm")
	if _, err := pr.CreateEnclave(threads * stormPages); err != nil {
		in.record(0, Storm, TargetMachine, "!storm enclave: %v", err)
		return
	}
	base := pr.Enclave().Base
	wins := in.plan.Storm
	for ti := 0; ti < threads; ti++ {
		tbase := base + enclave.VAddr(ti*stormPages*enclave.PageBytes)
		name := fmt.Sprintf("fault-storm-%d", ti)
		plat.SpawnThreadAt(name, pr, in.tg.StormCore, wins[0].Start, func(th *platform.Thread) {
			th.EnterEnclave()
			off := 0
			for _, w := range wins {
				th.SpinUntil(w.Start)
				for th.Now() < w.End {
					va := tbase + enclave.VAddr(off%(stormPages*enclave.PageBytes))
					th.Access(va)
					th.Flush(va)
					off += enclave.PageBytes
				}
			}
			th.ExitEnclave()
		})
	}
	in.record(wins[0].Start, Storm, TargetMachine, "storm armed: %d threads, %d bursts", threads, len(wins))
}

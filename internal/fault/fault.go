// Package fault is the deterministic chaos layer for the simulated testbed:
// it generates reproducible fault schedules (core migration, timer drift and
// jitter, EPC paging, MEE-cache power flushes, bursty co-tenant noise) and
// composes them onto a booted platform as injector actors.
//
// The paper evaluates its channel "without any error handling" on a quiet,
// pinned machine (§5.4); real SGX attacks die from exactly the events modeled
// here — CacheZoom-style AEX preemption, scheduler migration off the pinned
// core, EPC paging that silently moves a page to a new physical frame (and so
// a new MEE cache set), and co-tenant enclaves churning the MEE cache. The
// chaos layer makes those conditions available on demand, and — critically —
// on a leash: a Plan is a pure function of its Config (the schedule comes
// from a private PCG stream seeded by Config.Seed, never the platform RNG),
// so the exp harness's byte-identical-artifact guarantee survives fault
// injection at any worker count.
package fault

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"meecc/internal/sim"
)

// Kind labels one family of injected faults.
type Kind int

const (
	// Migration bounces an endpoint thread off its pinned core (scheduler
	// preemption + migration): the thread pays an AEX-sized stall, runs on a
	// foreign core with cold private caches for a while, then bounces back.
	Migration Kind = iota
	// Timer perturbs an endpoint's hyperthread timer: per-reading uniform
	// jitter plus a cumulative random-walk drift, modeling a helper thread
	// that falls behind when the sibling hyperthread is descheduled.
	Timer
	// Paging forces an EPC paging round trip (EWB + ELDU) on one of the
	// endpoint's candidate pages. The page returns in a different physical
	// frame, so its versions line maps to a different MEE cache set — the
	// previously discovered eviction set is silently stale afterwards.
	Paging
	// MEEFlush drops the entire MEE cache (suspend/resume or an MEE key
	// rotation): every primed line is gone at once.
	MEEFlush
	// Storm runs a co-tenant enclave streaming protected memory at 4 KB
	// stride in on/off bursts, their duty cycle scaled by Intensity — the
	// Figure 8(d) environment, but bursty instead of constant.
	Storm
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Migration:
		return "migration"
	case Timer:
		return "timer"
	case Paging:
		return "paging"
	case MEEFlush:
		return "meeflush"
	case Storm:
		return "storm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a spec string to a Kind.
func ParseKind(s string) (Kind, error) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// ParseKinds parses a comma-separated kind list; "all" (or "") selects every
// kind, "none" selects none.
func ParseKinds(s string) ([]Kind, error) {
	switch s {
	case "", "all":
		return AllKinds(), nil
	case "none":
		return nil, nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		k, err := ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// AllKinds returns every fault kind.
func AllKinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Target selects which endpoint an event hits.
type Target int

const (
	// TargetTrojan hits the sending endpoint.
	TargetTrojan Target = iota
	// TargetSpy hits the receiving endpoint.
	TargetSpy
	// TargetMachine hits machine-wide state (MEE flush).
	TargetMachine
)

func (t Target) String() string {
	switch t {
	case TargetTrojan:
		return "trojan"
	case TargetSpy:
		return "spy"
	case TargetMachine:
		return "machine"
	default:
		return fmt.Sprintf("Target(%d)", int(t))
	}
}

// Config describes a fault campaign over one simulated session. Zero-valued
// durations take the documented defaults; Intensity scales event rates (mean
// gaps divide by it) and the jitter amplitude, so one dial sweeps a campaign
// from benign to hostile. Intensity 0 disables everything.
type Config struct {
	// Seed derives the schedule. Plans with equal Config are identical.
	Seed uint64
	// Kinds lists the enabled fault families (duplicates are ignored).
	Kinds []Kind
	// Intensity scales the campaign; 1.0 is the nominal hostile load.
	Intensity float64
	// Start and End bound the window (in simulated cycles) faults land in.
	Start, End sim.Cycles

	// MigrationGap is the mean gap between migration bounces (default 2M
	// cycles at intensity 1); ReturnAfter how long the thread stays
	// displaced on the foreign core (default 150k).
	MigrationGap sim.Cycles
	ReturnAfter  sim.Cycles

	// DriftGap is the mean gap between timer drift steps (default 1.5M).
	DriftGap sim.Cycles
}

// The campaign's fixed shape.
const (
	// migrationStall is the AEX+scheduler cost charged on each migration
	// bounce.
	migrationStall sim.Cycles = 30_000
	// driftStep is the maximum per-step timer skew in cycles (signed
	// uniform); jitterAmp the ± bound of per-reading timer noise applied
	// for the whole window, scaled by Intensity.
	driftStep = 40
	jitterAmp = 2500
	// pagingGap is the mean gap between EPC paging events; pagingStall the
	// page-fault cost charged to the owning thread.
	pagingGap   sim.Cycles = 4_000_000
	pagingStall sim.Cycles = 60_000
	// flushGap is the mean gap between MEE cache flushes.
	flushGap sim.Cycles = 3_000_000
	// stormPeriod and stormDuty shape the noise bursts: each period starts
	// with duty*period cycles of 4 KB-stride MEE traffic (duty is scaled by
	// Intensity and capped at 0.95).
	stormPeriod sim.Cycles = 1_000_000
	stormDuty              = 0.5
)

// withDefaults fills zero durations.
func (c Config) withDefaults() Config {
	def := func(v *sim.Cycles, d sim.Cycles) {
		if *v == 0 {
			*v = d
		}
	}
	def(&c.MigrationGap, 2_000_000)
	def(&c.ReturnAfter, 150_000)
	def(&c.DriftGap, 1_500_000)
	return c
}

// Event is one scheduled fault. Selector fields (Pick) are uniform [0,1)
// draws resolved against live state (core list, page list) at apply time, so
// the plan stays pure while the application adapts to the session layout.
type Event struct {
	At     sim.Cycles
	Kind   Kind
	Target Target
	// Stall is the preemption cost charged to the target (Migration, Paging).
	Stall sim.Cycles
	// Home marks the return half of a migration bounce.
	Home bool
	// Drift is the signed timer skew applied by a Timer event.
	Drift sim.Cycles
	// Jitter, when positive, sets the target's per-reading timer noise bound.
	Jitter float64
	// Pick selects the destination core (Migration) or victim page (Paging).
	Pick float64
}

// Window is one on-burst of the noise storm.
type Window struct {
	Start, End sim.Cycles
}

// Plan is a fully materialized fault schedule: events sorted by time plus
// the storm's on-windows. It is a pure function of its Config.
type Plan struct {
	Config Config
	Events []Event
	Storm  []Window
}

// NewPlan derives the schedule for cfg. The generator stream is private to
// the plan (PCG seeded from cfg.Seed), so building a plan never perturbs the
// platform RNG and equal configs yield byte-identical plans.
func NewPlan(cfg Config) *Plan {
	cfg = cfg.withDefaults()
	p := &Plan{Config: cfg}
	if cfg.Intensity <= 0 || cfg.End <= cfg.Start {
		return p
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0xda3e39cb94b95bdb))
	seen := make(map[Kind]bool)
	for _, k := range cfg.Kinds {
		if seen[k] {
			continue
		}
		seen[k] = true
		switch k {
		case Migration:
			p.genMigration(rng)
		case Timer:
			p.genTimer(rng)
		case Paging:
			p.genPaging(rng)
		case MEEFlush:
			p.genFlush(rng)
		case Storm:
			p.genStorm()
		}
	}
	sort.SliceStable(p.Events, func(i, j int) bool {
		return p.Events[i].At < p.Events[j].At
	})
	return p
}

// arrivals walks exponential inter-arrival times with the given mean gap
// (divided by Intensity) across the window, invoking f at each point.
func (p *Plan) arrivals(rng *rand.Rand, meanGap sim.Cycles, f func(at sim.Cycles)) {
	cfg := p.Config
	mean := float64(meanGap) / cfg.Intensity
	t := cfg.Start
	for {
		gap := sim.Cycles(rng.ExpFloat64()*mean) + 1
		t += gap
		if t >= cfg.End {
			return
		}
		f(t)
	}
}

// endpoint draws trojan or spy with equal probability.
func endpoint(rng *rand.Rand) Target {
	if rng.Uint64()&1 == 0 {
		return TargetTrojan
	}
	return TargetSpy
}

func (p *Plan) genMigration(rng *rand.Rand) {
	cfg := p.Config
	p.arrivals(rng, cfg.MigrationGap, func(at sim.Cycles) {
		tgt := endpoint(rng)
		pick := rng.Float64()
		p.Events = append(p.Events,
			Event{At: at, Kind: Migration, Target: tgt, Stall: migrationStall, Pick: pick},
			Event{At: at + cfg.ReturnAfter, Kind: Migration, Target: tgt, Home: true, Stall: migrationStall / 2},
		)
	})
}

func (p *Plan) genTimer(rng *rand.Rand) {
	cfg := p.Config
	amp := jitterAmp * cfg.Intensity
	// Jitter switches on for both endpoints at window start...
	p.Events = append(p.Events,
		Event{At: cfg.Start, Kind: Timer, Target: TargetTrojan, Jitter: amp},
		Event{At: cfg.Start, Kind: Timer, Target: TargetSpy, Jitter: amp},
	)
	// ...and drift accumulates as a signed random walk, independently per
	// endpoint so the two clocks diverge (a shared skew would cancel out).
	p.arrivals(rng, cfg.DriftGap, func(at sim.Cycles) {
		d := sim.Cycles((rng.Float64()*2 - 1) * driftStep * cfg.Intensity)
		p.Events = append(p.Events, Event{At: at, Kind: Timer, Target: endpoint(rng), Drift: d})
	})
}

func (p *Plan) genPaging(rng *rand.Rand) {
	p.arrivals(rng, pagingGap, func(at sim.Cycles) {
		p.Events = append(p.Events, Event{
			At: at, Kind: Paging, Target: endpoint(rng),
			Stall: pagingStall, Pick: rng.Float64(),
		})
	})
}

func (p *Plan) genFlush(rng *rand.Rand) {
	p.arrivals(rng, flushGap, func(at sim.Cycles) {
		p.Events = append(p.Events, Event{At: at, Kind: MEEFlush, Target: TargetMachine})
	})
}

func (p *Plan) genStorm() {
	cfg := p.Config
	duty := stormDuty * cfg.Intensity
	if duty > 0.95 {
		duty = 0.95
	}
	on := sim.Cycles(float64(stormPeriod) * duty)
	if on <= 0 {
		return
	}
	for t := cfg.Start; t < cfg.End; t += stormPeriod {
		end := t + on
		if end > cfg.End {
			end = cfg.End
		}
		p.Storm = append(p.Storm, Window{Start: t, End: end})
	}
}

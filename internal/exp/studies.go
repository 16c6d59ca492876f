package exp

import (
	"fmt"
	"sort"

	"meecc/internal/core"
	"meecc/internal/obs"
)

// studies maps Spec.Study names to runner factories. RunnerFor calls the
// factory, so every harness run gets a fresh runner with its own private
// state (the channel study's warm cache). Every runner remains a pure
// function of the job's parameters and seed in the sense the Runner
// contract requires: the warm cache only memoizes warm-up work whose
// forked results are exactly equal to fresh ones, so cache hits and misses
// produce identical trial results.
var studies = map[string]func(warm *core.WarmCache) Runner{
	"channel": func(warm *core.WarmCache) Runner {
		return func(j Job) (Metrics, *obs.Snapshot, error) {
			// Warm sharing only pays off when cells share seeds; without
			// shared axes every trial has a unique seed and caching would
			// just pin dead snapshots.
			var w *core.WarmCache
			if len(j.Spec.SharedAxes) > 0 {
				w = warm
			}
			return core.ChannelTrialWarm(j.Params(), j.Seed, j.Spec.Metrics, w)
		}
	},
	"capacity": func(*core.WarmCache) Runner {
		return func(j Job) (Metrics, *obs.Snapshot, error) {
			return core.CapacityTrial(j.Params(), j.Seed, j.Spec.Metrics)
		}
	},
	// Chaos trials always run fresh: ChaosTrial takes no warm cache, and
	// its adaptive arm warms with six calibration pools per enclave where a
	// channel warm state has one (see ChaosTrial).
	"chaos": func(*core.WarmCache) Runner {
		return func(j Job) (Metrics, *obs.Snapshot, error) {
			return core.ChaosTrial(j.Params(), j.Seed, j.Spec.Metrics)
		}
	},
}

// Studies lists the registered study names.
func Studies() []string {
	names := make([]string, 0, len(studies))
	for name := range studies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunnerFor resolves a spec's study name ("" means "channel") to a fresh
// runner instance. Runner-private caches live and die with the returned
// runner, so memory is bounded per harness run.
func RunnerFor(study string) (Runner, error) {
	return RunnerWithWarmCache(study, core.NewWarmCache(0))
}

// RunnerWithWarmCache is RunnerFor with a caller-owned warm-state cache
// (studies that don't warm-fork ignore it). Long-lived callers — the serve
// service — inject a cache that outlives individual harness runs and may
// carry a snapstore-backed disk tier, so warm state survives across
// submissions and processes. The cache never affects results: warm-forked
// trials are exactly equal to fresh ones.
func RunnerWithWarmCache(study string, warm *core.WarmCache) (Runner, error) {
	if study == "" {
		study = "channel"
	}
	factory, ok := studies[study]
	if !ok {
		return nil, fmt.Errorf("exp: unknown study %q (have: %v)", study, Studies())
	}
	return factory(warm), nil
}

// RunSpec resolves the spec's study and runs it — the one-call entry point
// for `meecc batch` and the figure regenerators.
func RunSpec(spec *Spec, cfg Config) (*Report, error) {
	runner, err := RunnerFor(spec.Study)
	if err != nil {
		return nil, err
	}
	return Run(spec, runner, cfg)
}

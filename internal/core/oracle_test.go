package core

import (
	"bytes"
	"reflect"
	"testing"

	"meecc/internal/fault"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// oracleCampaign is a fault campaign dense enough to land inside a short
// transmission: timer jitter from the first window, drift steps, and
// migration bounces whose stalls hit the endpoints mid-wait.
func oracleCampaign() *fault.Config {
	return &fault.Config{
		Seed:         5,
		Kinds:        []fault.Kind{fault.Timer, fault.Migration},
		Intensity:    1,
		MigrationGap: 60_000,
		ReturnAfter:  30_000,
		DriftGap:     40_000,
	}
}

// TestChannelMatchesLinearOracle is the engine's determinism proof on real
// channel runs: every configuration shape — noise kinds, repetition,
// one-phase eviction, a wide window, a truncated search, a second seed, a
// fault campaign, a warm-forked transmission and an observed run — must
// produce the same result, error and metrics snapshot under the heap
// scheduler (run-ahead batches, collapsed timer waits) as under the linear
// single-step oracle.
func TestChannelMatchesLinearOracle(t *testing.T) {
	channel := func(mutate func(*ChannelConfig)) func(*obs.Observer) (any, error) {
		return func(*obs.Observer) (any, error) {
			cfg := DefaultChannelConfig(42)
			cfg.Bits = AlternatingBits(8)
			mutate(&cfg)
			return RunChannel(cfg)
		}
	}
	cases := map[string]func(*obs.Observer) (any, error){
		"default":      channel(func(*ChannelConfig) {}),
		"noise-memory": channel(func(c *ChannelConfig) { c.Noise = NoiseMemory }),
		"noise-mee512": channel(func(c *ChannelConfig) { c.Noise = NoiseMEE512 }),
		"noise-mee4k":  channel(func(c *ChannelConfig) { c.Noise = NoiseMEE4K }),
		"repetition":   channel(func(c *ChannelConfig) { c.Bits = AlternatingBits(4); c.Repetition = 3 }),
		"one-phase":    channel(func(c *ChannelConfig) { c.TwoPhaseEviction = false }),
		"wide-window":  channel(func(c *ChannelConfig) { c.Window = 30000 }),
		// A 1-cycle search budget forces the spy to overrun: discovery is
		// still in flight at the run limit, so both schedulers must
		// truncate it at exactly the same operation and fail the same way.
		"spy-overrun": channel(func(c *ChannelConfig) { c.budgets = warmBudgets{calBudget, setupBudget, 1} }),
		// A second seed: other eviction sets, other noise addresses.
		"mee512-seed11": func(*obs.Observer) (any, error) {
			cfg := DefaultChannelConfig(11)
			cfg.Bits = AlternatingBits(6)
			cfg.Noise = NoiseMEE512
			return RunChannel(cfg)
		},
		"faults": channel(func(c *ChannelConfig) {
			c.Bits = RandomBits(42, 24)
			c.Fault = oracleCampaign()
		}),
		"observed": func(o *obs.Observer) (any, error) {
			return channel(func(c *ChannelConfig) { c.Noise = NoiseMEE512; c.Obs = o })(o)
		},
		"warm-fork": func(*obs.Observer) (any, error) {
			cfg := DefaultChannelConfig(7)
			cfg.Bits = RandomBits(7, 12)
			ws, err := WarmChannel(cfg)
			if err != nil {
				return nil, err
			}
			return ws.Run(cfg)
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			heapObs, linearObs := obs.NewObserver(), obs.NewObserver()
			heap, heapErr := run(heapObs)
			// The linear scheduler commits one operation per step — one
			// timer poll per step where the heap collapses a whole wait.
			linear, linearErr := func() (any, error) {
				sim.SetForceLinearSchedulerForTest(true)
				defer sim.SetForceLinearSchedulerForTest(false)
				return run(linearObs)
			}()
			if errString(heapErr) != errString(linearErr) {
				t.Fatalf("error mismatch: heap=%v linear=%v", heapErr, linearErr)
			}
			if !reflect.DeepEqual(heap, linear) {
				t.Fatalf("result mismatch:\nheap:   %+v\nlinear: %+v", heap, linear)
			}
			if h, l := heapObs.Snapshot().Encode(), linearObs.Snapshot().Encode(); !bytes.Equal(h, l) {
				t.Fatalf("metrics snapshots differ:\nheap:   %s\nlinear: %s", h, l)
			}
		})
	}
}

// TestObserversDoNotChangeResults pins the observability contract: turning
// metrics and tracing on must not change what the simulation does, for the
// raw channel and for the resilient session under faults alike.
func TestObserversDoNotChangeResults(t *testing.T) {
	observed := func() *obs.Observer { return obs.NewObserver().WithTracer(1 << 12) }

	ch := DefaultChannelConfig(42)
	ch.Bits = RandomBits(42, 16)
	ch.Noise = NoiseMEE4K
	plain, errPlain := RunChannel(ch)
	ch.Obs = observed()
	seen, errSeen := RunChannel(ch)
	if errString(errPlain) != errString(errSeen) || !reflect.DeepEqual(plain, seen) {
		t.Fatalf("RunChannel changed under observation:\nplain:    %+v (%v)\nobserved: %+v (%v)",
			plain, errPlain, seen, errSeen)
	}

	rc := DefaultChannelConfig(42)
	rc.Fault = faultCfg(fault.Migration, 8)
	payload := []byte("observer probe")
	rPlain, errPlain := RunResilient(rc, payload)
	rc.Obs = observed()
	rSeen, errSeen := RunResilient(rc, payload)
	if errString(errPlain) != errString(errSeen) || !reflect.DeepEqual(rPlain, rSeen) {
		t.Fatalf("RunResilient changed under observation:\nplain:    %+v (%v)\nobserved: %+v (%v)",
			rPlain, errPlain, rSeen, errSeen)
	}
}

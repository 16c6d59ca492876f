package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meecc/internal/fault"
	"meecc/internal/sim"
)

func TestChannelTransmitsAlternatingBits(t *testing.T) {
	cfg := DefaultChannelConfig(42)
	cfg.Bits = AlternatingBits(30)
	res, err := RunChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.1 {
		t.Errorf("error rate %.3f too high: sent %v recv %v", res.ErrorRate, res.Sent, res.Received)
	}
}

func TestChannelRandomPayload(t *testing.T) {
	cfg := DefaultChannelConfig(1001)
	cfg.Bits = RandomBits(77, 128)
	res, err := RunChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorRate > 0.08 {
		t.Errorf("error rate %.3f for random payload", res.ErrorRate)
	}
}

func TestChannelProbeTimesSeparateHitAndMiss(t *testing.T) {
	cfg := DefaultChannelConfig(7)
	cfg.Bits = AlternatingBits(40)
	res, err := RunChannel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 6(b): '0' probes ~480 cycles (versions hit), '1' probes ~750
	// (versions miss). Compare window means on correctly decoded bits.
	var hitSum, missSum sim.Cycles
	var hits, misses int
	for i, b := range res.Sent {
		if res.Received[i] != b {
			continue
		}
		if b == 0 {
			hitSum += res.ProbeTimes[i]
			hits++
		} else {
			missSum += res.ProbeTimes[i]
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatal("no correctly decoded samples")
	}
	hitMean := float64(hitSum) / float64(hits)
	missMean := float64(missSum) / float64(misses)
	if hitMean < 400 || hitMean > 600 {
		t.Errorf("'0' probe mean %.0f, want ~480", hitMean)
	}
	if missMean < 680 || missMean > 950 {
		t.Errorf("'1' probe mean %.0f, want ~750", missMean)
	}
	if missMean-hitMean < 200 {
		t.Errorf("hit/miss separation %.0f too small", missMean-hitMean)
	}
}

func TestChannelDeterministicForSeed(t *testing.T) {
	run := func() *ChannelResult {
		cfg := DefaultChannelConfig(555)
		cfg.Bits = RandomBits(555, 64)
		res, err := RunChannel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.ProbeTimes {
		if a.ProbeTimes[i] != b.ProbeTimes[i] {
			t.Fatalf("probe %d differs across identical runs: %d vs %d", i, a.ProbeTimes[i], b.ProbeTimes[i])
		}
	}
	if a.BitErrors != b.BitErrors {
		t.Fatalf("bit errors differ: %d vs %d", a.BitErrors, b.BitErrors)
	}
}

func TestChannelErrorKneeBelowEvictionLatency(t *testing.T) {
	// §5.4: sending a '1' takes ~9000 cycles, so windows below that are
	// unreliable. Compare 7500 vs 15000.
	small := DefaultChannelConfig(21)
	small.Window = 7500
	small.Bits = RandomBits(21, 128)
	resSmall, err := RunChannel(small)
	if err != nil {
		t.Fatal(err)
	}
	big := DefaultChannelConfig(21)
	big.Window = 15000
	big.Bits = RandomBits(21, 128)
	resBig, err := RunChannel(big)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.ErrorRate < 0.15 {
		t.Errorf("7500-cycle window error %.3f, expected the paper's knee (>15%%)", resSmall.ErrorRate)
	}
	if resBig.ErrorRate > 0.08 {
		t.Errorf("15000-cycle window error %.3f, expected <8%%", resBig.ErrorRate)
	}
}

func TestEvictionPhaseStudy(t *testing.T) {
	// §5.3's two-phase eviction is a hedge against approximate-LRU
	// replacement. Under true LRU the eviction cascade is deterministic
	// and even a single pass suffices; under tree-PLRU, per-seed dynamics
	// can lock the monitor in place, and the second pass never hurts.
	for _, twoPhase := range []bool{false, true} {
		res, err := EvictionStudy(DefaultOptions(41), "lru", twoPhase, 40)
		if err != nil {
			t.Fatalf("lru twoPhase=%v: %v", twoPhase, err)
		}
		if res.SuccessRate() < 0.95 {
			t.Errorf("lru twoPhase=%v success %.2f, want ~1.0", twoPhase, res.SuccessRate())
		}
	}
	// Across seeds, two-phase eviction under tree-PLRU must do at least as
	// well as a single pass in aggregate.
	var one, two int
	const windows = 40
	for seed := uint64(50); seed < 56; seed++ {
		r1, err := EvictionStudy(DefaultOptions(seed), "tree-plru", false, windows)
		if err != nil {
			continue // Algorithm 1 itself can fail under PLRU; that's data
		}
		r2, err := EvictionStudy(DefaultOptions(seed), "tree-plru", true, windows)
		if err != nil {
			continue
		}
		one += r1.Successes
		two += r2.Successes
	}
	if one == 0 && two == 0 {
		t.Skip("tree-plru setup failed for all seeds")
	}
	if two < one {
		t.Errorf("tree-plru: two-phase %d successes < single-pass %d", two, one)
	}
}

func TestChannelRejectsBadBits(t *testing.T) {
	// Every runner that transmits cfg.Bits applies the same payload check:
	// bits are 0 or 1, and an empty payload, whose error rate would be 0/0,
	// is refused.
	warm, err := WarmChannel(DefaultChannelConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	runners := []struct {
		name string
		run  func(ChannelConfig) error
	}{
		{"RunChannel", func(c ChannelConfig) error { _, err := RunChannel(c); return err }},
		{"ChannelWarmState.Run", func(c ChannelConfig) error { _, err := warm.Run(c); return err }},
		{"RunInBandChannel", func(c ChannelConfig) error { _, err := RunInBandChannel(c); return err }},
		{"RunLLCChannel", func(c ChannelConfig) error { _, err := RunLLCChannel(c); return err }},
		{"RunPrimeProbe", func(c ChannelConfig) error { _, err := RunPrimeProbe(c); return err }},
		{"RunParallelChannel", func(c ChannelConfig) error { _, err := RunParallelChannel(c, 1); return err }},
	}
	for _, tc := range []struct {
		bits []byte
		want string
	}{
		{[]byte{0, 1, 2, 1}, "core: bits must be 0/1, got 2"},
		{[]byte{}, "core: empty payload: no bits to transmit"},
	} {
		for _, r := range runners {
			cfg := DefaultChannelConfig(1)
			cfg.Bits = tc.bits
			if err := r.run(cfg); err == nil || err.Error() != tc.want {
				t.Errorf("%s(%v): err = %v, want %q", r.name, tc.bits, err, tc.want)
			}
		}
	}
}

func TestSetupCutShortFailsFreshAndWarm(t *testing.T) {
	// A one-cycle setup budget ends the fresh run (~16M cycles) long before
	// Algorithm 1 finishes (~30M): the trojan never transmits, so the run
	// must fail rather than decode the spy's probes of a silent channel.
	cfg := DefaultChannelConfig(42)
	cfg.Bits = RandomBits(42, 8)
	cfg.budgets = warmBudgets{calBudget, 1, searchBudget}
	if _, err := RunChannel(cfg); err == nil || err.Error() != "core: trojan never completed setup" {
		t.Errorf("fresh: err = %v, want trojan never completed setup", err)
	}
	// The warm path runs Algorithm 1 to completion and reports the overrun.
	if _, err := WarmChannel(cfg); err == nil || !strings.Contains(err.Error(), "trojan setup overran its budget") {
		t.Errorf("warm: err = %v, want a setup overrun", err)
	}
}

func TestTwoPhaseEvictionReachesEveryRunner(t *testing.T) {
	// A single-pass config must reach the in-band and parallel trojans'
	// eviction passes, not only RunChannel's.
	runners := []struct {
		name string
		seed uint64
		run  func(ChannelConfig) (any, error)
	}{
		{"RunInBandChannel", 61, func(c ChannelConfig) (any, error) { return RunInBandChannel(c) }},
		{"RunParallelChannel", 71, func(c ChannelConfig) (any, error) { return RunParallelChannel(c, 1) }},
	}
	for _, r := range runners {
		cfg := DefaultChannelConfig(r.seed)
		cfg.Bits = RandomBits(r.seed, 64)
		two, errTwo := r.run(cfg)
		cfg.TwoPhaseEviction = false
		one, errOne := r.run(cfg)
		if reflect.DeepEqual(one, two) && fmt.Sprint(errOne) == fmt.Sprint(errTwo) {
			t.Errorf("%s: single-pass run equals the two-phase run", r.name)
		}
	}
}

// TestEnvironmentReachesEverySessionRunner checks that each runner built
// on channelSession arms cfg's environment: under every noise kind, and
// under a fault campaign, each runner's output (result and error) differs
// from its quiet run at the same seed.
func TestEnvironmentReachesEverySessionRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	runners := []struct {
		name string
		run  func(ChannelConfig) (any, error)
	}{
		{"RunChannel", func(c ChannelConfig) (any, error) { return RunChannel(c) }},
		// The session reports no probe trace, only what its rounds did: a
		// six-byte payload runs enough rounds for every noise kind to
		// move them.
		{"RunResilient", func(c ChannelConfig) (any, error) { return RunResilient(c, []byte("covert")) }},
		{"RunInBandChannel", func(c ChannelConfig) (any, error) { return RunInBandChannel(c) }},
		{"RunPrimeProbe", func(c ChannelConfig) (any, error) { return RunPrimeProbe(c) }},
	}
	envs := []struct {
		name string
		set  func(*ChannelConfig)
	}{
		{"memory", func(c *ChannelConfig) { c.Noise = NoiseMemory }},
		{"mee512", func(c *ChannelConfig) { c.Noise = NoiseMEE512 }},
		{"mee4k", func(c *ChannelConfig) { c.Noise = NoiseMEE4K }},
		{"faults", func(c *ChannelConfig) {
			c.Fault = &fault.Config{Seed: 3, Kinds: []fault.Kind{fault.Timer}, Intensity: 1}
		}},
	}
	for _, r := range runners {
		quiet, quietErr := r.run(pinnedChannel(42))
		for _, env := range envs {
			t.Run(r.name+"/"+env.name, func(t *testing.T) {
				cfg := pinnedChannel(42)
				env.set(&cfg)
				res, err := r.run(cfg)
				if reflect.DeepEqual(res, quiet) && fmt.Sprint(err) == fmt.Sprint(quietErr) {
					t.Errorf("output under %s equals the quiet run's (err %v)", env.name, err)
				}
			})
		}
	}
}

// TestRunnersRefuseWhatTheyIgnore holds the LLC, parallel, in-band and
// Prime+Probe runners to the rule every channel runner keeps: a
// ChannelConfig field it is given either changes its output or comes back
// as an error that names the field. The LLC channel arms neither noise nor
// faults, the parallel lanes arm no faults, and none of the four codes a
// bit over repeated windows, so each row's run must be refused.
func TestRunnersRefuseWhatTheyIgnore(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	llc := func(c ChannelConfig) (any, error) { return RunLLCChannel(c) }
	lanes := func(c ChannelConfig) (any, error) { return RunParallelChannel(c, 2) }
	inband := func(c ChannelConfig) (any, error) { return RunInBandChannel(c) }
	primeProbe := func(c ChannelConfig) (any, error) { return RunPrimeProbe(c) }
	repeat := func(c *ChannelConfig) { c.Repetition = 3 }
	campaign := func(c *ChannelConfig) {
		c.Fault = &fault.Config{Seed: 3, Kinds: []fault.Kind{fault.Timer, fault.Migration, fault.Paging}, Intensity: 1}
	}
	rows := []struct {
		name, field string
		run         func(ChannelConfig) (any, error)
		set         func(*ChannelConfig)
	}{
		{"RunLLCChannel/mee4k", "Noise", llc, func(c *ChannelConfig) { c.Noise = NoiseMEE4K }},
		{"RunLLCChannel/faults", "Fault", llc, campaign},
		{"RunParallelChannel/faults", "Fault", lanes, campaign},
		{"RunLLCChannel/repetition", "Repetition", llc, repeat},
		{"RunParallelChannel/repetition", "Repetition", lanes, repeat},
		{"RunInBandChannel/repetition", "Repetition", inband, repeat},
		{"RunPrimeProbe/repetition", "Repetition", primeProbe, repeat},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			quiet, err := row.run(pinnedChannel(42))
			if err != nil {
				t.Fatal(err)
			}
			cfg := pinnedChannel(42)
			row.set(&cfg)
			res, err := row.run(cfg)
			switch {
			case err != nil && !strings.Contains(err.Error(), "ChannelConfig."+row.field):
				t.Errorf("error %q does not name ChannelConfig.%s", err, row.field)
			case err == nil && reflect.DeepEqual(res, quiet):
				t.Errorf("%s was ignored: the output equals the quiet run's", row.field)
			}
		})
	}
}

func TestRandomReplacementDefeatsSetupGracefully(t *testing.T) {
	cfg := DefaultChannelConfig(3)
	cfg.Options.MEEPolicy = "random"
	cfg.Bits = AlternatingBits(16)
	if _, err := RunChannel(cfg); err == nil {
		t.Log("channel survived random replacement (possible but unlikely)")
	}
	// The important property: no panic, a clean error or degraded result.
}

func TestBitPatternHelpers(t *testing.T) {
	alt := AlternatingBits(5)
	want := []byte{0, 1, 0, 1, 0}
	for i := range want {
		if alt[i] != want[i] {
			t.Fatalf("AlternatingBits %v", alt)
		}
	}
	pat := PatternBits("100", 7)
	wantPat := []byte{1, 0, 0, 1, 0, 0, 1}
	for i := range wantPat {
		if pat[i] != wantPat[i] {
			t.Fatalf("PatternBits %v", pat)
		}
	}
	a, b := RandomBits(9, 64), RandomBits(9, 64)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandomBits not deterministic")
		}
		if a[i] > 1 {
			t.Fatal("RandomBits produced non-bit")
		}
	}
	c := RandomBits(10, 64)
	diff := 0
	for i := range a {
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds gave identical bits")
	}
}

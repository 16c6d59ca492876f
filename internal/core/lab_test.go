package core

import (
	"reflect"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

func TestPageAddrsLayout(t *testing.T) {
	addrs := pageAddrs(0x8000_0000, 4, 3)
	if len(addrs) != 4 {
		t.Fatalf("len %d", len(addrs))
	}
	for i, a := range addrs {
		want := enclave.VAddr(0x8000_0000 + i*4096 + 3*512)
		if a != want {
			t.Fatalf("addr %d = %#x, want %#x", i, a, want)
		}
	}
}

func TestOptionsPlatformConfig(t *testing.T) {
	o := DefaultOptions(5)
	o.MEEWays = 4
	o.MEEPolicy = "srrip"
	o.RandomEvictProb = 0.1
	cfg := o.platformConfig()
	if cfg.MEE.CacheWays != 4 {
		t.Fatalf("associativity override lost: %d", cfg.MEE.CacheWays)
	}
	if cfg.MEEPolicyName != "srrip" {
		t.Fatalf("policy %q", cfg.MEEPolicyName)
	}
	if cfg.MEE.RandomEvictProb != 0.1 {
		t.Fatal("random-evict override lost")
	}
}

// TestZeroOptionsIsPaperTestbed pins Options' contract: the zero value plus
// a seed boots the paper's testbed, ambient spikes included.
func TestZeroOptionsIsPaperTestbed(t *testing.T) {
	got, want := Options{Seed: 5}.platformConfig(), platform.DefaultConfig(5)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Options{Seed: 5} boots\n%+v\nwant platform.DefaultConfig(5)\n%+v", got, want)
	}
}

func TestWaitUntilTimerOvershootBounded(t *testing.T) {
	plat := DefaultOptions(6).boot()
	defer plat.Close()
	pr := plat.NewProcess("w")
	var woke sim.Cycles
	plat.SpawnThread("w", pr, 0, func(th *platform.Thread) {
		th.WaitTimer(100_000)
		woke = th.Now()
	})
	plat.Run(-1)
	if woke < 100_000 || woke > 100_000+200 {
		t.Fatalf("woke at %d, want 100000..100200", woke)
	}
}

func TestTimedAccessApproximatesLatency(t *testing.T) {
	cfg := DefaultOptions(7).platformConfig()
	cfg.SpikeProb = 0
	plat := platform.New(cfg)
	defer plat.Close()
	pr := plat.NewProcess("m")
	if _, err := pr.CreateEnclave(2); err != nil {
		t.Fatal(err)
	}
	plat.SpawnThread("m", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		va := pr.Enclave().Base
		th.Access(va)
		th.Flush(va)
		for i := 0; i < 20; i++ {
			m := timedAccess(th, va)
			th.Flush(va)
			// Versions hit ~480, quantization ±35 plus read costs.
			if m < 380 || m > 650 {
				t.Fatalf("measured %d for a versions hit", m)
			}
		}
	})
	plat.Run(-1)
}

func TestSpawnNoiseUnknownKind(t *testing.T) {
	plat := DefaultOptions(8).boot()
	defer plat.Close()
	if err := spawnNoise(plat, NoiseKind(99), 1, 0); err == nil {
		t.Fatal("unknown noise kind accepted")
	}
}

func TestNoiseKindStrings(t *testing.T) {
	cases := map[NoiseKind]string{
		NoiseNone:     "none",
		NoiseMemory:   "memory-stress",
		NoiseMEE512:   "mee-stride-512B",
		NoiseMEE4K:    "mee-stride-4KB",
		NoiseKind(42): "NoiseKind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d: %q != %q", int(k), got, want)
		}
	}
}

func TestFindEvictionSetTooFewCandidates(t *testing.T) {
	plat := DefaultOptions(9).boot()
	defer plat.Close()
	pr := plat.NewProcess("few")
	if _, err := pr.CreateEnclave(8 + 16); err != nil {
		t.Fatal(err)
	}
	base := pr.Enclave().Base
	var gotErr error
	plat.SpawnThread("few", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		threshold := calibrateThreshold(th, pageAddrs(base, 8, 0))
		// 16 candidates cannot overflow any 8-way set.
		cands := pageAddrs(base+enclave.VAddr(8*enclave.PageBytes), 16, 0)
		_, gotErr = FindEvictionSet(th, cands, threshold)
	})
	plat.Run(-1)
	if gotErr == nil {
		t.Fatal("eviction set found from 16 candidates")
	}
}

func TestMeasureCapacityCustomSizes(t *testing.T) {
	res, err := MeasureCapacity(DefaultOptions(10), []int{8, 64}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points %d", len(res.Points))
	}
	if res.Points[1].Probability < 0.99 {
		t.Fatalf("64-candidate probability %.2f", res.Points[1].Probability)
	}
}

func TestEvictionStudyRejectsUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown policy accepted")
		}
	}()
	_, _ = EvictionStudy(DefaultOptions(11), "made-up", true, 5)
}

func TestMitigationResultDefeated(t *testing.T) {
	if (MitigationResult{ErrorRate: 0.1}).Defeated() {
		t.Fatal("10% error counted as defeat")
	}
	if !(MitigationResult{ErrorRate: 0.3}).Defeated() {
		t.Fatal("30% error not counted as defeat")
	}
	if !(MitigationResult{SetupFailed: true}).Defeated() {
		t.Fatal("setup failure not counted as defeat")
	}
}

func TestChannelConfigDefaults(t *testing.T) {
	var c ChannelConfig
	c.applyDefaults()
	if c.Window != 15000 {
		t.Fatalf("window %d", c.Window)
	}
	if c.ProbePhase != 0.65 {
		t.Fatalf("phase %v", c.ProbePhase)
	}
	if c.budgets != (warmBudgets{calBudget, setupBudget, searchBudget}) {
		t.Fatalf("budgets %+v not defaulted", c.budgets)
	}
}

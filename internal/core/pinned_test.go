package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"meecc/internal/fault"
	"meecc/internal/obs"
)

// pinnedRow is one runner invocation whose exact output is pinned.
type pinnedRow struct {
	name string
	want string // sha256 of the result's JSON, a NUL, and the error string
	run  func() (any, error)
}

// pinnedChannel is a 16-bit channel config at seed.
func pinnedChannel(seed uint64) ChannelConfig {
	cfg := DefaultChannelConfig(seed)
	cfg.Bits = RandomBits(seed, 16)
	return cfg
}

// pinnedOverrun is the 8-bit seed-42 config whose run limit falls inside a
// warm phase once one of its budgets is cut to a single cycle.
func pinnedOverrun() ChannelConfig {
	cfg := DefaultChannelConfig(42)
	cfg.Bits = RandomBits(42, 8)
	return cfg
}

var pinnedRows = []pinnedRow{
	{"RunChannel/two-phase", "a6a49b2499ba6d7db41199f312dc612860c35bfb6dd327995a1ea31daefd9899", func() (any, error) {
		return RunChannel(pinnedChannel(5))
	}},
	{"RunChannel/one-phase", "0db75ead0462c9024567ca8ee21a7f9e4ec472ddc0a992cfdfadb4d3d7b92123", func() (any, error) {
		cfg := pinnedChannel(42)
		cfg.TwoPhaseEviction = false
		return RunChannel(cfg)
	}},
	{"RunChannel/fault-campaign", "c7feebe1fca7dcd5bbb58979760d8c91b0163d87a98811efa76aa7aa7a0e4c7e", func() (any, error) {
		cfg := pinnedChannel(61)
		cfg.Fault = &fault.Config{Seed: 3, Kinds: []fault.Kind{fault.Timer, fault.Migration, fault.Paging}, Intensity: 1}
		return RunChannel(cfg)
	}},
	{"WarmChannel/window-10000", "35be983511a700162890b9f5abea988253325db1d48d7332e2e402c35d223c13", func() (any, error) {
		cfg := pinnedChannel(1007)
		ws, err := WarmChannel(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Window = 10_000
		return ws.Run(cfg)
	}},
	{"RunResilient/clean", "ee74aaba4f70b40fdc1e9c8d99c39ae1206a9bc532f7653df2b91be9f410a983", func() (any, error) {
		return RunResilient(DefaultChannelConfig(5), []byte("mc"))
	}},
	// Three resyncs, then an abort: the resync rounds' Algorithm 1 re-run,
	// burst and monitor re-discovery all run.
	{"RunResilient/resync-campaign", "04f6fb55d308e0575f10d6d483ab1d4313c5451c5c1f4b241fa9281dc235895e", func() (any, error) {
		cfg := DefaultChannelConfig(7)
		cfg.Fault = &fault.Config{Seed: 9, Kinds: []fault.Kind{fault.Paging, fault.Timer}, Intensity: 0.5}
		return RunResilient(cfg, []byte("mc"))
	}},
	{"RunResilient/observed", "55d079b1f73f3ed5fbb9e49d1dc7e70ec445d0286ed2161df2986e409a15d091", func() (any, error) {
		cfg := DefaultChannelConfig(1007)
		cfg.Obs = obs.NewObserver()
		res, err := RunResilient(cfg, []byte("mc"))
		return struct {
			Res  *ResilientResult
			Snap *obs.Snapshot
		}{res, cfg.Obs.Snapshot()}, err
	}},
	{"ChaosTrial", "a8a2cd8c85805e32ddfb3f0ea14b272baa72d6562442ac9d19bf6beba0d41f8f", func() (any, error) {
		params := map[string]string{"faults": "paging,timer", "intensity": "0.5", "faultseed": "9", "payload": "2"}
		metrics, snap, err := ChaosTrial(params, 7, true)
		return struct {
			Metrics map[string]float64
			Snap    *obs.Snapshot
		}{metrics, snap}, err
	}},
	{"RunInBandChannel", "56c240aa9584b514c8d4dc322ebf4675a88698f4052666849c92e66a8c93d0ec", func() (any, error) {
		return RunInBandChannel(pinnedChannel(61))
	}},
	{"RunParallelChannel/1-lane", "c874a0a21cfedd03f7276242b659f4fc1dd36bdb78f9121512ed5ded9fa47bbd", func() (any, error) {
		return RunParallelChannel(pinnedChannel(71), 1)
	}},
	{"RunParallelChannel/2-lanes", "584502dbcd797eca8c4f44d778419e8356f64f3569d05038a37fc8f89774494e", func() (any, error) {
		return RunParallelChannel(pinnedChannel(72), 2)
	}},
	{"RunPrimeProbe", "6dd19d40732bc7ea2cec8c6a9c9cdb52dff8b9ecbcbf46508a90f60d08d9f24a", func() (any, error) {
		return RunPrimeProbe(pinnedChannel(42))
	}},
	{"EvictionStudy/one-phase", "ed23e4e3c32ea78f3608444209ee75339cba5416d1fde3a84611af1dd8eb7e7d", func() (any, error) {
		return EvictionStudy(DefaultOptions(41), "lru", false, 40)
	}},
	{"EvictionStudy/two-phase", "0fa4910fb128bc443d37d89e8689fe99a915bd5c3a7e7a2581c30ac044ea2a5e", func() (any, error) {
		return EvictionStudy(DefaultOptions(41), "lru", true, 40)
	}},
	// The run limit stops the fresh run inside Algorithm 1: an error, not
	// a transmission the trojan never sent.
	{"RunChannel/setup-overrun", "80cd8a0cb7865e12153d41309bb94f88bd2050338b83b90dc4f7d8f171f0c3d1", func() (any, error) {
		cfg := pinnedOverrun()
		cfg.budgets = warmBudgets{calBudget, 1, searchBudget}
		return RunChannel(cfg)
	}},
	{"WarmChannel/setup-overrun", "0e90d12d943c9394e08117abe85b6d692fb9458bc18cd66412336cbdf5908e37", func() (any, error) {
		cfg := pinnedOverrun()
		cfg.budgets = warmBudgets{calBudget, 1, searchBudget}
		return WarmChannel(cfg)
	}},
	// The run limit stops the in-band spy inside monitor discovery.
	{"RunInBandChannel/search-overrun", "06fa06c3ce725857ea4103b5b1e88e936379a47df5e621a835144ab8f4f76879", func() (any, error) {
		cfg := pinnedOverrun()
		cfg.budgets = warmBudgets{calBudget, setupBudget, 1}
		return RunInBandChannel(cfg)
	}},
}

// pinnedDigest hashes a runner's result and error.
func pinnedDigest(t *testing.T, res any, err error) string {
	t.Helper()
	js, jerr := json.Marshal(res)
	if jerr != nil {
		t.Fatalf("marshal result: %v", jerr)
	}
	h := sha256.New()
	h.Write(js)
	h.Write([]byte{0})
	if err != nil {
		h.Write([]byte(err.Error()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunnerOutputsPinned pins every runner's exact output, errors
// included, where the other runner tests check only ranges: a change to
// any runner's operation stream moves its digest. A deliberate change
// re-records the rows it moves.
func TestRunnerOutputsPinned(t *testing.T) {
	for _, row := range pinnedRows {
		t.Run(row.name, func(t *testing.T) {
			res, err := row.run()
			if got := pinnedDigest(t, res, err); got != row.want {
				t.Errorf("digest %s, want %s (err: %v)", got, row.want, err)
			}
		})
	}
}

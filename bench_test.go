// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment end to end and reports the figure's headline
// quantities as custom metrics, so
//
//	go test -bench=. -benchmem . ./internal/figures
//
// doubles as a full reproduction pass. BenchmarkFig8Noise lives in
// internal/figures, beside the figure spec it runs.
package meecc

import (
	"runtime"
	"testing"

	"meecc/internal/core"
	"meecc/internal/exp"
)

// mustRunChannel runs the channel, retrying setup failures under fresh
// seeds so growing b.N cannot die on one unlucky seed.
func mustRunChannel(b *testing.B, cfg ChannelConfig) *ChannelResult {
	b.Helper()
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c := cfg
		c.Options.Seed = cfg.Options.Seed + uint64(attempt)*1_000_003
		res, err := RunChannel(c)
		if err == nil {
			return res
		}
		lastErr = err
	}
	b.Fatal(lastErr)
	return nil
}

// BenchmarkFig4EvictionProbability regenerates §4.1 (Figure 4): eviction
// probability vs candidate-address-set size, inferring the 64 KB capacity.
func BenchmarkFig4EvictionProbability(b *testing.B) {
	var capacityKB float64
	for i := 0; i < b.N; i++ {
		res, err := MeasureCapacity(DefaultOptions(uint64(i)), nil, 25)
		if err != nil {
			b.Fatal(err)
		}
		capacityKB = float64(res.CapacityBytes) / 1024
	}
	b.ReportMetric(capacityKB, "capacityKB")
}

// BenchmarkAlg1FindEvictionSet regenerates §4.2 (Algorithm 1): full
// organization recovery, reporting the discovered associativity.
func BenchmarkAlg1FindEvictionSet(b *testing.B) {
	var ways float64
	for i := 0; i < b.N; i++ {
		org, _, _, err := ReverseEngineer(DefaultOptions(uint64(13+i)), 10)
		if err != nil {
			b.Fatal(err)
		}
		ways = float64(org.Ways)
	}
	b.ReportMetric(ways, "ways")
}

// BenchmarkFig5LatencyHistogram regenerates §5.1 (Figure 5): the latency
// distribution by integrity-tree hit level; reports the versions-hit mean
// (paper: ~480 cycles) and the per-level spacing (paper: ~270).
func BenchmarkFig5LatencyHistogram(b *testing.B) {
	var vh, gap float64
	for i := 0; i < b.N; i++ {
		res, err := CharacterizeLatency(DefaultOptions(uint64(14+i)), 400)
		if err != nil {
			b.Fatal(err)
		}
		vh = res.MeanLatency(0)
		gap = res.MeanLatency(1) - vh
	}
	b.ReportMetric(vh, "versionsHitCyc")
	b.ReportMetric(gap, "levelGapCyc")
}

// BenchmarkFig6aPrimeProbe regenerates §5.2 (Figure 6a): the Prime+Probe
// baseline; reports its error rate and minimum probe time (paper: probes
// exceed 3500 cycles, communication not established).
func BenchmarkFig6aPrimeProbe(b *testing.B) {
	var errRate, minProbe float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(5 + i))
		cfg.Bits = AlternatingBits(64)
		res, err := RunPrimeProbe(cfg)
		if err != nil {
			b.Fatal(err)
		}
		errRate = res.ErrorRate
		minProbe = float64(res.ProbeTimes[0])
		for _, p := range res.ProbeTimes {
			if float64(p) < minProbe {
				minProbe = float64(p)
			}
		}
	}
	b.ReportMetric(errRate, "err/bit")
	b.ReportMetric(minProbe, "minProbeCyc")
}

// BenchmarkFig6bCovertChannel regenerates §5.3 (Figure 6b): this work's
// channel sending '0101...'; reports error rate and bit rate.
func BenchmarkFig6bCovertChannel(b *testing.B) {
	var errRate, kbps float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(42 + i))
		cfg.Bits = AlternatingBits(30)
		res := mustRunChannel(b, cfg)
		errRate, kbps = res.ErrorRate, res.KBps
	}
	b.ReportMetric(errRate, "err/bit")
	b.ReportMetric(kbps, "KBps")
}

// BenchmarkFig7WindowSweep regenerates §5.4 (Figure 7) the way one testbed
// would: per seed, one warm-up (calibration, Algorithm 1, monitor discovery)
// forked for each of the seven windows with a fresh 256-bit payload. It
// reports the paper's headline operating point (15000 cycles) and the knee
// (7500). ./ci.sh bench-gate compares its ns/op with results/bench.json, so
// its seeds and per-op work must stay as recorded there.
func BenchmarkFig7WindowSweep(b *testing.B) {
	var kbps15, err15, err7500 float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(1 + i))
		ws, err := core.WarmChannel(cfg)
		if err != nil {
			continue // rare per-seed setup failure; keep prior metric
		}
		for j, w := range PaperWindows() {
			cfg.Window = w
			cfg.Bits = RandomBits(cfg.Options.Seed+uint64(j)*7919, 256)
			res, err := ws.Run(cfg)
			if err != nil {
				continue
			}
			switch w {
			case 15000:
				kbps15, err15 = res.KBps, res.ErrorRate
			case 7500:
				err7500 = res.ErrorRate
			}
		}
	}
	b.ReportMetric(kbps15, "KBps@15k")
	b.ReportMetric(err15, "err@15k")
	b.ReportMetric(err7500, "err@7.5k")
}

// BenchmarkMitigations runs the §5.5-extension ablation; reports how many
// of the hardened variants defeat the channel.
func BenchmarkMitigations(b *testing.B) {
	var defeated float64
	for i := 0; i < b.N; i++ {
		defeated = 0
		for _, m := range MitigationStudy(DefaultOptions(uint64(9+i)), 15000, 128) {
			if m.Name != "baseline" && m.Defeated() {
				defeated++
			}
		}
	}
	b.ReportMetric(defeated, "defeatedVariants")
}

// BenchmarkEvictionPhases runs the §5.3 design-choice ablation: eviction
// success of single-pass vs two-phase passes under LRU.
func BenchmarkEvictionPhases(b *testing.B) {
	var one, two float64
	for i := 0; i < b.N; i++ {
		r1, err := EvictionStudy(DefaultOptions(uint64(41+i)), "lru", false, 40)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := EvictionStudy(DefaultOptions(uint64(41+i)), "lru", true, 40)
		if err != nil {
			b.Fatal(err)
		}
		one, two = r1.SuccessRate(), r2.SuccessRate()
	}
	b.ReportMetric(one, "fwdOnlySuccess")
	b.ReportMetric(two, "fwdBwdSuccess")
}

// BenchmarkLLCPrimeProbeChannel runs the classic LLC covert channel — the
// baseline attack family (refs [7],[9]) the paper positions against.
func BenchmarkLLCPrimeProbeChannel(b *testing.B) {
	var kbps, errRate float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(81 + i))
		cfg.Window = 0 // LLC default: 5000 cycles
		cfg.Bits = RandomBits(uint64(81+i), 256)
		res, err := RunLLCChannel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		kbps, errRate = res.KBps, res.ErrorRate
	}
	b.ReportMetric(kbps, "KBps")
	b.ReportMetric(errRate, "err/bit")
}

// BenchmarkParallelLanes runs the two-lane extension (beyond the paper).
func BenchmarkParallelLanes(b *testing.B) {
	var kbps, errRate float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(72 + i))
		cfg.Bits = RandomBits(uint64(72+i), 128)
		res, err := RunParallelChannel(cfg, 2)
		if err != nil {
			b.Fatal(err)
		}
		kbps, errRate = res.KBps, res.ErrorRate
	}
	b.ReportMetric(kbps, "KBps")
	b.ReportMetric(errRate, "err/bit")
}

// BenchmarkStealthStudy contrasts detector-visible footprints.
func BenchmarkStealthStudy(b *testing.B) {
	var meeShare, llcShare float64
	for i := 0; i < b.N; i++ {
		rows, err := StealthStudy(DefaultOptions(uint64(83+i)), 15000, 96)
		if err != nil {
			b.Fatal(err)
		}
		meeShare, llcShare = rows[0].LLCHottestShare, rows[1].LLCHottestShare
	}
	b.ReportMetric(meeShare, "meeHotShare")
	b.ReportMetric(llcShare, "llcHotShare")
}

// BenchmarkTimingStudy reproduces the §3 time-source comparison.
func BenchmarkTimingStudy(b *testing.B) {
	var ocall, ht float64
	for i := 0; i < b.N; i++ {
		rows, err := TimingStudy(DefaultOptions(uint64(23+i)), 40)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Mechanism {
			case "ocall-rdtsc":
				ocall = r.MeanOverhead
			case "hyperthread-timer":
				ht = r.MeanOverhead
			}
		}
	}
	b.ReportMetric(ocall, "ocallCyc")
	b.ReportMetric(ht, "htTimerCyc")
}

// BenchmarkMemoryOverhead reproduces the SGX slowdown curve.
func BenchmarkMemoryOverhead(b *testing.B) {
	var small, large float64
	for i := 0; i < b.N; i++ {
		rows, err := MeasureOverhead(DefaultOptions(uint64(29+i)), nil, 400)
		if err != nil {
			b.Fatal(err)
		}
		small, large = rows[0].Slowdown(), rows[len(rows)-1].Slowdown()
	}
	b.ReportMetric(small, "slowdown32KB")
	b.ReportMetric(large, "slowdown16MB")
}

// BenchmarkActivityInference runs the side-channel-direction extension.
func BenchmarkActivityInference(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := InferActivity(DefaultOptions(uint64(37+i)), 24, 150_000)
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy
	}
	b.ReportMetric(acc, "accuracy")
}

// BenchmarkInBandSync runs the self-synchronizing channel extension.
func BenchmarkInBandSync(b *testing.B) {
	var kbps, errRate float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(61 + i))
		cfg.Bits = RandomBits(uint64(61+i), 64)
		res, err := RunInBandChannel(cfg)
		if err != nil {
			b.Fatal(err)
		}
		kbps, errRate = res.KBps, res.ErrorRate
	}
	b.ReportMetric(kbps, "effKBps")
	b.ReportMetric(errRate, "err/bit")
}

// BenchmarkDetectionStudy runs the HPC attack-monitor comparison.
func BenchmarkDetectionStudy(b *testing.B) {
	var llcAlarm, meeAlarm float64
	for i := 0; i < b.N; i++ {
		rows, err := DetectionStudy(DefaultOptions(uint64(91+i)), 15000, 96)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Workload {
			case "llc-prime-probe":
				llcAlarm = r.AlarmRate
			case "mee-cache-channel":
				meeAlarm = r.AlarmRate
			}
		}
	}
	b.ReportMetric(llcAlarm, "llcAlarmRate")
	b.ReportMetric(meeAlarm, "meeAlarmRate")
}

// BenchmarkExpHarness runs a two-cell, multi-trial window grid through the
// internal/exp worker pool — the path cmd/figures and `meecc batch` use —
// and reports the aggregated headline stats plus the pool's throughput.
// On a multi-core machine the harness parallelizes across GOMAXPROCS
// workers while keeping results byte-identical to a serial run.
func BenchmarkExpHarness(b *testing.B) {
	spec := &exp.Spec{
		Name:     "bench",
		Study:    "channel",
		BaseSeed: 42,
		Trials:   4,
		Params:   map[string]string{"bits": "64", "pattern": "random"},
		Axes:     []exp.Axis{{Name: "window", Values: []string{"10000", "15000"}}},
	}
	var kbps, ci float64
	for i := 0; i < b.N; i++ {
		rep, err := exp.RunSpec(spec, exp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		c := rep.Cell("window=15000")
		kbps = c.Stat("kbps").Mean
		ci = c.Stat("error_rate").CI95
	}
	b.ReportMetric(kbps, "KBps@15k")
	b.ReportMetric(ci, "errCI95@15k")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
}

// BenchmarkHeadlineChannel is the paper's abstract claim: ~35 KBps at 1.7%
// error without error handling, measured over a long random payload.
func BenchmarkHeadlineChannel(b *testing.B) {
	var kbps, errRate float64
	for i := 0; i < b.N; i++ {
		cfg := DefaultChannelConfig(uint64(1001 + i))
		cfg.Bits = RandomBits(uint64(77+i), 512)
		res := mustRunChannel(b, cfg)
		kbps, errRate = res.KBps, res.ErrorRate
	}
	b.ReportMetric(kbps, "KBps")
	b.ReportMetric(errRate, "err/bit")
}

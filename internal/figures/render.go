package figures

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"meecc"
	"meecc/internal/exp"
	"meecc/internal/mee"
	"meecc/internal/trace"
)

func fig2(e *Env) error {
	e.header("Figure 2 / §3: measuring time inside an SGX1 enclave")
	o := e.Observer()
	opts := meecc.DefaultOptions(e.Seed)
	opts.Obs = o
	results, err := meecc.TimingStudy(opts, 60)
	if err != nil {
		return err
	}
	tb := trace.NewTable("mechanism", "in-enclave", "overhead (cyc)", "jitter sd", "resolves 300-cyc signal")
	for _, r := range results {
		if !r.AvailableInEnclave {
			tb.Row(r.Mechanism, "no (#UD)", "-", "-", "no")
			continue
		}
		tb.Row(r.Mechanism, "yes", r.MeanOverhead, r.StdDev, r.Usable())
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "paper anchors: OCALL costs 8000-15000 cycles; hyperthread timer ~50")
	return e.FinishObs(o)
}

// fig4Spec is Figure 4's grid: one cell per EPC layout, each trial a full
// capacity experiment with e.Trials eviction tests per candidate size.
func fig4Spec(e *Env) *exp.Spec {
	return &exp.Spec{
		Name:     "fig4",
		Study:    "capacity",
		BaseSeed: e.Seed,
		Trials:   1,
		Params:   map[string]string{"samples": strconv.Itoa(e.Trials)},
		Axes:     []exp.Axis{{Name: "epc", Values: []string{"contiguous", "fragmented"}}},
	}
}

func fig4(e *Env) error {
	e.header("Figure 4: eviction probability vs candidate address set size (§4.1)")
	rep, err := e.grid(fig4Spec(e))
	if err != nil {
		return err
	}
	contig, frag := rep.Cell("epc=contiguous"), rep.Cell("epc=fragmented")
	if fails := rep.Failures(); fails > 0 {
		return fmt.Errorf("%d capacity run(s) failed", fails)
	}
	tb := trace.NewTable("candidates", "P(evict) contiguous EPC", "P(evict) fragmented EPC")
	var rows [][]float64
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		metric := fmt.Sprintf("p_evict_%d", n)
		pc, pf := contig.Stat(metric).Mean, frag.Stat(metric).Mean
		tb.Row(n, pc, pf)
		rows = append(rows, []float64{float64(n), pc, pf})
	}
	tb.Render(e.Stdout)
	fmt.Fprintf(e.Stdout, "inferred MEE cache capacity: %.0f KB (paper: 64 KB)\n", contig.Stat("capacity_kb").Mean)
	return e.writeCSV("fig4.csv", func(w io.Writer) error {
		return trace.WriteCSV(w, []string{"candidates", "p_evict_contiguous", "p_evict_fragmented"}, rows)
	})
}

func fig5(e *Env) error {
	e.header("Figure 5: protected-region access latency by MEE-cache hit level (§5.1)")
	o := e.Observer()
	opts := meecc.DefaultOptions(e.Seed)
	opts.Obs = o
	res, err := meecc.CharacterizeLatency(opts, 800)
	if err != nil {
		return err
	}
	var rows [][]float64
	for h := mee.HitVersions; h <= mee.HitRoot; h++ {
		hst := res.ByLevel[h]
		fmt.Fprintf(e.Stdout, "\n%s  (n=%d, mean=%.0f cycles)\n", h, hst.N(), hst.Mean())
		hst.Render(e.Stdout, 50)
		for _, b := range hst.Buckets() {
			rows = append(rows, []float64{float64(h), b.Lo, b.Hi, float64(b.Count)})
		}
	}
	fmt.Fprintln(e.Stdout, "\npaper anchors: versions hit ~480, versions miss (L0 hit) ~750, ~+270/level")
	if err := e.writeCSV("fig5.csv", func(w io.Writer) error {
		return trace.WriteCSV(w, []string{"hit_level", "bucket_lo", "bucket_hi", "count"}, rows)
	}); err != nil {
		return err
	}
	return e.FinishObs(o)
}

func fig6a(e *Env) error {
	e.header("Figure 6(a): Prime+Probe baseline, trojan sending '0101...' (§5.2)")
	o := e.Observer()
	cfg := meecc.DefaultChannelConfig(e.Seed)
	cfg.Bits = meecc.AlternatingBits(16)
	cfg.Obs = o
	res, err := meecc.RunPrimeProbe(cfg)
	if err != nil {
		return err
	}
	if err := e.renderTrace("fig6a.csv", res.Sent, res.Received, toF(res.ProbeTimes),
		fmt.Sprintf("probe-all-8 threshold %d; errors %d/%d (%.1f%%) — paper: communication not established; every probe >3500 cycles",
			res.Threshold, res.BitErrors, len(res.Sent), 100*res.ErrorRate)); err != nil {
		return err
	}
	return e.FinishObs(o)
}

func fig6b(e *Env) error {
	e.header("Figure 6(b): this work's MEE-cache covert channel, '0101...' (§5.3)")
	o := e.Observer()
	cfg := meecc.DefaultChannelConfig(e.Seed)
	cfg.Bits = meecc.AlternatingBits(30)
	cfg.Obs = o
	res, err := meecc.RunChannel(cfg)
	if err != nil {
		return err
	}
	if err := e.renderTrace("fig6b.csv", res.Sent, res.Received, toF(res.ProbeTimes),
		fmt.Sprintf("spy threshold %d; errors %d/%d — paper anchors: '0'≈480, '1'≈750 cycles",
			res.SpyThreshold, res.BitErrors, len(res.Sent))); err != nil {
		return err
	}
	return e.FinishObs(o)
}

// fig7Spec is Figure 7's grid: e.Trials random e.Bits-bit payloads at each
// of the paper's windows.
func fig7Spec(e *Env) *exp.Spec {
	windows := make([]string, 0, len(meecc.PaperWindows()))
	for _, w := range meecc.PaperWindows() {
		windows = append(windows, strconv.FormatInt(int64(w), 10))
	}
	return &exp.Spec{
		Name:     "fig7",
		Study:    "channel",
		BaseSeed: e.Seed,
		Trials:   e.Trials,
		Params:   map[string]string{"bits": strconv.Itoa(e.Bits), "pattern": "random"},
		Axes:     []exp.Axis{{Name: "window", Values: windows}},
	}
}

func fig7(e *Env) error {
	e.header("Figure 7: bit rate vs error rate across timing-window sizes (§5.4)")
	rep, err := e.grid(fig7Spec(e))
	if err != nil {
		return err
	}
	tb := trace.NewTable("window (cyc)", "bit rate (KBps)", "error rate (mean ± 95% CI)", "err min..max", "trials")
	var rows [][]float64
	for _, c := range rep.Cells {
		w, _ := c.Cell.Get("window")
		kbps, errRate := c.Stat("kbps"), c.Stat("error_rate")
		tb.Row(w, kbps.Mean,
			fmt.Sprintf("%.4f ± %.4f", errRate.Mean, errRate.CI95),
			fmt.Sprintf("%.4f..%.4f", errRate.Min, errRate.Max),
			fmt.Sprintf("%d (%d failed)", c.Trials, c.Failures))
		wf, _ := strconv.ParseFloat(w, 64)
		row := []float64{wf}
		row = append(row, kbps.Columns()...)
		row = append(row, errRate.Columns()...)
		row = append(row, float64(c.Trials), float64(c.Failures))
		rows = append(rows, row)
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "paper anchors: ~35 KBps / 1.7% at 15000; 34% at 7500; knee between 7500 and 10000")
	return e.writeCSV("fig7.csv", func(w io.Writer) error {
		header := append([]string{"window_cycles"}, trace.StatHeader("kbps")...)
		header = append(header, trace.StatHeader("error_rate")...)
		header = append(header, "trials", "failures")
		return trace.WriteCSV(w, header, rows)
	})
}

// fig8Spec is Figure 8's grid: e.Trials runs of the 128-bit '100100...'
// sequence at window e.Window in each noise environment.
func fig8Spec(e *Env) *exp.Spec {
	return &exp.Spec{
		Name:     "fig8",
		Study:    "channel",
		BaseSeed: e.Seed,
		Trials:   e.Trials,
		Params:   map[string]string{"bits": "128", "pattern": "100", "window": strconv.FormatInt(int64(e.Window), 10)},
		Axes:     []exp.Axis{{Name: "noise", Values: []string{"none", "memory", "mee512", "mee4k"}}},
	}
}

func fig8(e *Env) error {
	e.header("Figure 8: 128-bit '100100...' under noise environments (§5.4)")
	rep, err := e.grid(fig8Spec(e))
	if err != nil {
		return err
	}
	tb := trace.NewTable("environment", "error bits (mean ± 95% CI)", "error rate", "min..max", "trials")
	var rows [][]string
	for _, c := range rep.Cells {
		env, _ := c.Cell.Get("noise")
		bits, errRate := c.Stat("bit_errors"), c.Stat("error_rate")
		tb.Row(env,
			fmt.Sprintf("%.2f ± %.2f", bits.Mean, bits.CI95),
			errRate.Mean,
			fmt.Sprintf("%.0f..%.0f", bits.Min, bits.Max),
			fmt.Sprintf("%d (%d failed)", c.Trials, c.Failures))
		row := []string{env}
		for _, v := range append(bits.Columns(), errRate.Columns()...) {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		row = append(row, strconv.Itoa(c.Trials), strconv.Itoa(c.Failures))
		rows = append(rows, row)
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "paper anchors: 1 error bit quiet, ~same under memory noise, 4–5 under MEE noise")
	return e.writeCSV("fig8.csv", func(w io.Writer) error {
		header := append([]string{"environment"}, trace.StatHeader("bit_errors")...)
		header = append(header, trace.StatHeader("error_rate")...)
		header = append(header, "trials", "failures")
		return trace.WriteCSVRecords(w, header, rows)
	})
}

func figM(e *Env) error {
	e.header("Mitigation ablation (extension of §5.5)")
	results := meecc.MitigationStudy(meecc.DefaultOptions(e.Seed), 15000, e.Bits)
	tb := trace.NewTable("variant", "error rate", "setup", "defeated")
	for _, m := range results {
		setup := "ok"
		if m.SetupFailed {
			setup = "failed: " + m.Detail
		}
		tb.Row(m.Name, m.ErrorRate, setup, m.Defeated())
	}
	tb.Render(e.Stdout)
	return nil
}

func figE(e *Env) error {
	e.header("Eviction-phase x replacement-policy ablation (§5.3)")
	tb := trace.NewTable("policy", "phases", "eviction success")
	for _, pol := range []string{"lru", "tree-plru", "bit-plru"} {
		for _, two := range []bool{false, true} {
			phases := "fwd"
			if two {
				phases = "fwd+bwd"
			}
			res, err := meecc.EvictionStudy(meecc.DefaultOptions(e.Seed), pol, two, 60)
			if err != nil {
				tb.Row(pol, phases, "setup failed: "+err.Error())
				continue
			}
			tb.Row(pol, phases, res.SuccessRate())
		}
	}
	tb.Render(e.Stdout)
	return nil
}

func figP(e *Env) error {
	e.header("Parallel-lane extension: aggregate rate vs lanes (beyond the paper)")
	tb := trace.NewTable("lanes", "aggregate KBps", "error rate")
	for lanes := 1; lanes <= 2; lanes++ {
		cfg := meecc.DefaultChannelConfig(e.Seed + uint64(lanes))
		cfg.Bits = meecc.RandomBits(e.Seed, 128)
		res, err := meecc.RunParallelChannel(cfg, lanes)
		if err != nil {
			tb.Row(lanes, "-", err.Error())
			continue
		}
		tb.Row(lanes, res.KBps, res.ErrorRate)
	}
	tb.Render(e.Stdout)
	return nil
}

func figS(e *Env) error {
	e.header("Stealth study: detector-visible footprint, MEE channel vs LLC Prime+Probe")
	o := e.Observer()
	opts := meecc.DefaultOptions(e.Seed)
	opts.Obs = o
	rows, err := meecc.StealthStudy(opts, e.Window, 128)
	if err != nil {
		return err
	}
	tb := trace.NewTable("attack", "error rate", "LLC evictions/bit", "hottest-LLC-set share", "MEE reads/bit")
	for _, r := range rows {
		tb.Row(r.Attack, r.ErrorRate, r.LLCEvictionsPerBit, r.LLCHottestShare, r.MEEReadsPerBit)
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "an LLC-conflict detector sees the P+P channel hammer one set; the MEE channel's")
	fmt.Fprintln(e.Stdout, "conflict pattern lives in the MEE cache, which no performance counter exposes")
	return e.FinishObs(o)
}

func figO(e *Env) error {
	e.header("SGX memory overhead: enclave vs plain uncached reads (substrate validation)")
	o := e.Observer()
	opts := meecc.DefaultOptions(e.Seed)
	opts.Obs = o
	rows, err := meecc.MeasureOverhead(opts, nil, 800)
	if err != nil {
		return err
	}
	tb := trace.NewTable("working set", "plain (cyc)", "enclave (cyc)", "slowdown")
	for _, r := range rows {
		tb.Row(fmt.Sprintf("%d KB", r.WorkingSetBytes/1024), r.PlainCycles, r.EnclaveCycles, r.Slowdown())
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "the slowdown grows once the working set's integrity metadata no longer fits the MEE cache")
	return e.FinishObs(o)
}

func figA(e *Env) error {
	e.header("Victim-activity inference via shared-MEE contention (side-channel direction)")
	o := e.Observer()
	opts := meecc.DefaultOptions(e.Seed)
	opts.Obs = o
	res, err := meecc.InferActivity(opts, 32, 150_000)
	if err != nil {
		return err
	}
	row := func(label string, vals []bool) {
		fmt.Fprintf(e.Stdout, "  %-8s ", label)
		for _, v := range vals {
			if v {
				fmt.Fprint(e.Stdout, "#")
			} else {
				fmt.Fprint(e.Stdout, ".")
			}
		}
		fmt.Fprintln(e.Stdout)
	}
	row("victim", res.Truth)
	row("spy", res.Inferred)
	fmt.Fprintf(e.Stdout, "accuracy %.0f%% (quiet %.0f cyc, active %.0f cyc per probe)\n",
		100*res.Accuracy, res.QuietMean, res.ActiveMean)
	return e.FinishObs(o)
}

func figD(e *Env) error {
	e.header("HPC attack-monitor study: who gets caught (§5.5 defenses, operationalized)")
	rows, err := meecc.DetectionStudy(meecc.DefaultOptions(e.Seed), 15000, 96)
	if err != nil {
		return err
	}
	tb := trace.NewTable("workload", "alarm rate", "peak hottest-set share", "channel error")
	for _, r := range rows {
		errStr := "-"
		if r.Workload != "benign-memory-stress" {
			errStr = fmt.Sprintf("%.3f", r.ChannelError)
		}
		tb.Row(r.Workload, r.AlarmRate, r.PeakShare, errStr)
	}
	tb.Render(e.Stdout)
	fmt.Fprintln(e.Stdout, "the per-set LLC eviction monitor catches the P+P channel every window and")
	fmt.Fprintln(e.Stdout, "never fires on the MEE channel — there is no counter to watch the MEE cache with")
	return nil
}

func (e *Env) renderTrace(csvName string, sent, recv []byte, probes []float64, note string) error {
	fmt.Fprintf(e.Stdout, "sent: %s\n", bitString(sent))
	fmt.Fprintf(e.Stdout, "recv: %s\n", bitString(recv))
	fmt.Fprintf(e.Stdout, "probe times: %s\n", trace.Sparkline(probes))
	for i, p := range probes {
		marker := ""
		if recv != nil && i < len(recv) && recv[i] != sent[i] {
			marker = "  <-- error"
		}
		fmt.Fprintf(e.Stdout, "  bit %2d sent %d probe %5.0f%s\n", i, sent[i], p, marker)
	}
	fmt.Fprintln(e.Stdout, note)
	var rows [][]float64
	for i, p := range probes {
		r := float64(0)
		if recv != nil && i < len(recv) {
			r = float64(recv[i])
		}
		rows = append(rows, []float64{float64(i), float64(sent[i]), r, p})
	}
	return e.writeCSV(csvName, func(w io.Writer) error {
		return trace.WriteCSV(w, []string{"bit", "sent", "received", "probe_cycles"}, rows)
	})
}

func bitString(bits []byte) string {
	var b strings.Builder
	for _, x := range bits {
		b.WriteByte('0' + x)
	}
	return b.String()
}

func toF(xs []meecc.Cycles) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

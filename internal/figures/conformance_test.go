package figures

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"meecc"
	"meecc/internal/exp"
	"meecc/internal/trace"
)

// conformanceRow is one claim of the paper's evaluation, checked on the
// artifact of the spec a figure renders from.
type conformanceRow struct {
	name      string
	fig       string // the figure whose spec produced the artifact
	paper     string // what the paper reports
	tolerance string // what the row accepts, and why
	// deviation records, with measured numbers, where the model departs
	// from the paper in a way the row does not assert; empty if nowhere.
	deviation string
	// results records, with measured numbers, why the row fails on the
	// committed results/ artifacts; empty if it passes there.
	results string
	check   func(a *exp.Artifact) (measured string, err error)
}

// conformance is the paper-conformance table for the figures that run on the
// experiment harness. TestPaperConformance evaluates it on the specs the
// figures render from, at TestFiguresPinned's settings, and on the
// committed results/ artifacts.
var conformance = []conformanceRow{
	{
		name:  "fig4-capacity",
		fig:   "4",
		paper: "64 KB MEE cache (§4.1, Figure 4)",
		tolerance: "exactly 64 on contiguous EPC: capacity_kb is the smallest candidate count " +
			"whose eviction probability reaches 1, times the 1 KB of tree metadata a 4 KB page pins, " +
			"and the counts are powers of two, so any miss is off by a factor of two",
		check: func(a *exp.Artifact) (string, error) {
			s, err := cellStat(a, "epc=contiguous", "capacity_kb")
			if err != nil {
				return "", err
			}
			measured := fmt.Sprintf("capacity_kb %g..%g", s.Min, s.Max)
			if s.Min != 64 || s.Max != 64 {
				return measured, errors.New("inferred capacity is not 64 KB")
			}
			return measured, nil
		},
	},
	{
		name:  "fig7-eviction-set",
		fig:   "7",
		paper: "8-way MEE cache (§4.2, Algorithm 1)",
		tolerance: "exactly 8 in every trial of every window: Algorithm 1 finds one address per way, " +
			"and a trojan eviction set of any other size does not cover the monitor's set",
		check: func(a *exp.Artifact) (string, error) {
			var sizes []string
			var bad []string
			for _, c := range a.Cells {
				s := c.Stats["eviction_set"]
				sizes = append(sizes, fmt.Sprintf("%g..%g", s.Min, s.Max))
				if s.N == 0 || s.Min != 8 || s.Max != 8 {
					bad = append(bad, c.Key)
				}
			}
			measured := "eviction_set " + strings.Join(sizes, ", ")
			if len(bad) > 0 {
				return measured, fmt.Errorf("eviction set is not 8 in %s", strings.Join(bad, ", "))
			}
			return measured, nil
		},
	},
	{
		name: "fig7-rate",
		fig:  "7",
		paper: "100, 66.7 and 50 KBps at 5000, 7500 and 10000 cycles; " +
			"~35 KBps at 15000 (§5.4, Figure 7)",
		tolerance: "4 GHz ÷ (8 × window) at every paper window, to 1e-9 relative: one bit per window on " +
			"a fixed clock is arithmetic, not a measurement. At 15000 cycles that is 33.3 KBps. The " +
			"paper's 5000–10000 rates follow the same arithmetic, but its ~35 at 15000 is 5 % above it " +
			"(4.2 GHz, the i7-6700K's turbo clock, would give 35.0), so the row keeps 33.3 rather than " +
			"widening its band to reach 35",
		check: func(a *exp.Artifact) (string, error) {
			var rates []string
			for _, w := range meecc.PaperWindows() {
				s, err := cellStat(a, fmt.Sprintf("window=%d", w), "kbps")
				if err != nil {
					return strings.Join(rates, ", "), err
				}
				rates = append(rates, strconv.FormatFloat(s.Mean, 'f', 1, 64))
				want := 4e9 / (8 * float64(w)) / 1000 // one bit per window at 4 GHz, 1 KB = 1000 B
				if math.Abs(s.Min-want) > 1e-9*want || math.Abs(s.Max-want) > 1e-9*want {
					return strings.Join(rates, ", "), fmt.Errorf("window %d: %g..%g KBps, want %g", w, s.Min, s.Max, want)
				}
			}
			return strings.Join(rates, ", ") + " KBps", nil
		},
	},
	{
		name:  "fig7-knee",
		fig:   "7",
		paper: "error rises sharply between 7500 and 10000 cycles: 34 % at 7500, 5.2 % at 10000 (§5.4)",
		tolerance: "mean error >= 20 % at 5000 and 7500 and <= 5.2 % from 10000 up: a trojan '1' takes " +
			"~9000 cycles to evict the monitor, so shorter windows cannot carry a bit; 20 % is far " +
			"past what the channel runs at without coding, and 5.2 % is the paper's own worst point " +
			"above the knee",
		check: func(a *exp.Artifact) (string, error) {
			var errs []string
			for _, w := range meecc.PaperWindows() {
				s, err := cellStat(a, fmt.Sprintf("window=%d", w), "error_rate")
				if err != nil {
					return strings.Join(errs, ", "), err
				}
				errs = append(errs, fmt.Sprintf("%d: %.1f %%", w, 100*s.Mean))
				switch {
				case w < 10000 && s.Mean < 0.20:
					return strings.Join(errs, ", "), fmt.Errorf("error %.1f %% at %d, below the knee", 100*s.Mean, w)
				case w >= 10000 && s.Mean > 0.052:
					return strings.Join(errs, ", "), fmt.Errorf("error %.1f %% at %d, above the knee", 100*s.Mean, w)
				}
			}
			return strings.Join(errs, ", "), nil
		},
	},
	{
		name:  "fig7-error-at-15000",
		fig:   "7",
		paper: "1.7 % error at 15000 cycles (§5.4 headline)",
		tolerance: "within two binomial standard deviations of 1.7 % for the bits the cell sent: " +
			"±1.9 points (0 to 3.6 %) over the pinned 3 trials × 64 bits, where one bit error is " +
			"0.52 points, and ±0.16 points (1.54 to 1.86 %) over results/' 100 trials × 256 bits",
		check: func(a *exp.Artifact) (string, error) {
			errRate, err := cellStat(a, "window=15000", "error_rate")
			if err != nil {
				return "", err
			}
			bits, err := cellStat(a, "window=15000", "bits")
			if err != nil {
				return "", err
			}
			const paper = 0.017
			n := bits.Mean * float64(bits.N)
			band := 2 * math.Sqrt(paper*(1-paper)/n)
			measured := fmt.Sprintf("%.2f %% over %g bits (band %.2f..%.2f %%)",
				100*errRate.Mean, n, 100*math.Max(0, paper-band), 100*(paper+band))
			if math.Abs(errRate.Mean-paper) > band {
				return measured, errors.New("error rate at 15000 is outside the band")
			}
			return measured, nil
		},
	},
	{
		name:  "fig8-mee-4k",
		fig:   "8",
		paper: "an MEE neighbor at 4 KB stride costs 5 error bits against 1 quiet; plain memory noise changes little (§5.4, Figure 8)",
		tolerance: "the 95 % confidence interval of mee4k's mean error bits lies wholly above those of " +
			"quiet and memory: the paper's claim is this ordering, and 3 trials give intervals of " +
			"±1–4 bits",
		check: func(a *exp.Artifact) (string, error) {
			s, err := bitErrors(a, "none", "memory", "mee4k")
			if err != nil {
				return "", err
			}
			quiet, memory, mee4k := s[0], s[1], s[2]
			measured := fmt.Sprintf("error bits: quiet %.1f ± %.1f, memory %.1f ± %.1f, mee4k %.1f ± %.1f",
				quiet.Mean, quiet.CI95, memory.Mean, memory.CI95, mee4k.Mean, mee4k.CI95)
			floor := mee4k.Mean - mee4k.CI95
			if floor <= quiet.Mean+quiet.CI95 || floor <= memory.Mean+memory.CI95 {
				return measured, errors.New("mee4k noise is not clearly worse than quiet and memory noise")
			}
			return measured, nil
		},
	},
	{
		name:      "fig8-mee-512",
		fig:       "8",
		paper:     "an MEE neighbor at 512 B stride costs 4 error bits (4–5 under MEE noise) against 1 quiet (§5.4, Figure 8)",
		tolerance: "mee512's mean error bits within the paper's 4–5 band for MEE noise",
		deviation: "quiet (4.0 bits) and plain memory (3.7) land in the same range as mee512 (4.7), " +
			"where the paper has 1: at 512 B stride the model's neighbor does not separate from " +
			"background noise. One run each at seed 3 (examples/noisy-channel) even gives memory " +
			"stress 6 bits against mee512's 3",
		results: "mee512 reads 5.27 ± 0.41 error bits over 100 trials of 128 bits, above the paper's " +
			"4–5, against quiet 2.78 ± 0.34 and memory 4.76 ± 0.37: the band is the paper's and stays",
		check: func(a *exp.Artifact) (string, error) {
			s, err := bitErrors(a, "none", "memory", "mee512")
			if err != nil {
				return "", err
			}
			measured := fmt.Sprintf("error bits: quiet %.1f, memory %.1f, mee512 %.1f", s[0].Mean, s[1].Mean, s[2].Mean)
			if s[2].Mean < 4 || s[2].Mean > 5 {
				return measured, errors.New("mee512 error bits outside the paper's 4–5")
			}
			return measured, nil
		},
	},
}

// cellStat returns metric's aggregate in the artifact's cell with key.
func cellStat(a *exp.Artifact, key, metric string) (trace.Stat, error) {
	for _, c := range a.Cells {
		if c.Key != key {
			continue
		}
		s := c.Stats[metric]
		if s.N == 0 {
			return s, fmt.Errorf("cell %s has no %s samples", key, metric)
		}
		return s, nil
	}
	return trace.Stat{}, fmt.Errorf("artifact has no cell %s", key)
}

// bitErrors returns the bit_errors aggregate of each noise environment's
// cell, in argument order.
func bitErrors(a *exp.Artifact, noises ...string) ([]trace.Stat, error) {
	out := make([]trace.Stat, len(noises))
	for i, noise := range noises {
		var err error
		if out[i], err = cellStat(a, "noise="+noise, "bit_errors"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// committedFailures is how many trials of each committed results/ cell
// failed, keyed by figure and cell: each a monitor discovery that scored
// 2/10. Every other cell there, and every cell at the pinned settings, has
// none.
var committedFailures = map[string]int{
	"7/window=7500":  1,
	"7/window=10000": 1,
	"7/window=20000": 1,
	"8/noise=none":   1,
	"8/noise=mee4k":  1,
}

// TestPaperConformance checks every row of the conformance table on two
// sources: the artifacts of the specs Figures 4, 7 and 8 render from, run at
// TestFiguresPinned's settings, and the committed 100-trial artifacts in
// results/, which it reads without simulating anything. A cell's stats
// cover its successful trials only, so the test also bounds each cell's
// failed trials: none at the pinned settings, committedFailures in
// results/. A row that fails on results/ must record why in its results
// field, and one that records a failure there must still fail.
func TestPaperConformance(t *testing.T) {
	env := &Env{Seed: 42, Trials: 3, Bits: 64, Window: 15000}
	pinned := map[string]*exp.Artifact{}
	committed := map[string]*exp.Artifact{}
	for fig, spec := range map[string]*exp.Spec{"4": fig4Spec(env), "7": fig7Spec(env), "8": fig8Spec(env)} {
		rep, err := exp.RunSpec(spec, exp.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		pinned[fig] = rep.Artifact()
		data, err := os.ReadFile(filepath.Join("..", "..", "results", "fig"+fig+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if committed[fig], err = exp.UnmarshalArtifact(data); err != nil {
			t.Fatalf("results/fig%s.json: %v", fig, err)
		}
		for _, c := range pinned[fig].Cells {
			if c.Failures > 0 {
				t.Errorf("figure %s, cell %s: %d failed trials at the pinned settings", fig, c.Key, c.Failures)
			}
		}
		for _, c := range committed[fig].Cells {
			if want := committedFailures[fig+"/"+c.Key]; c.Failures > want {
				t.Errorf("results/fig%s.json, cell %s: %d failed trials, at most %d expected", fig, c.Key, c.Failures, want)
			}
		}
	}
	for _, row := range conformance {
		t.Run(row.name, func(t *testing.T) {
			measured, err := row.check(pinned[row.fig])
			t.Logf("paper: %s\nmeasured: %s", row.paper, measured)
			if row.deviation != "" {
				t.Logf("deviation: %s", row.deviation)
			}
			if err != nil {
				t.Errorf("%v\ntolerance: %s", err, row.tolerance)
			}
			measured, err = row.check(committed[row.fig])
			t.Logf("measured on results/: %s", measured)
			switch {
			case err != nil && row.results == "":
				t.Errorf("results/: %v\ntolerance: %s", err, row.tolerance)
			case err == nil && row.results != "":
				t.Errorf("results/ now passes; drop the recorded failure: %s", row.results)
			case err != nil:
				t.Logf("fails on results/, as recorded: %s", row.results)
			}
		})
	}
}

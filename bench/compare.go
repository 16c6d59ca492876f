package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareMain implements `compare PARENT CHANGE`, run from the repository
// root, where it reads each metric's direction and bound from
// BENCHMARK.json. Each file holds the JSON lines of one workload's runs on
// one side, line i of each file being pair i of runs made alternately. For
// every metric it prints each side's median and quartiles, how many pairs
// the change won, and a verdict under the protocol in README.md: a gain
// needs wins in at least nine tenths of the pairs and a median gap wider
// than the parent's interquartile range; a regression is a median worse
// than the parent's by more than the metric's bound; a metric whose parent
// spread exceeds its bound is unresolved unless every change run beats
// every parent run.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: compare PARENT.jsonl CHANGE.jsonl")
		return 2
	}
	defs, err := readDefs("BENCHMARK.json")
	if err == nil {
		var parent, change map[string][]float64
		if parent, err = readRuns(args[0]); err == nil {
			change, err = readRuns(args[1])
		}
		if err == nil {
			writeComparison(stdout, defs, parent, change)
			return 0
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 1
}

// metricRule is one metric's direction and regression bound (NaN: none).
type metricRule struct {
	higher bool
	bound  float64
}

func readDefs(path string) (map[string]metricRule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type def struct {
		Name   string   `json:"name"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rules := map[string]metricRule{}
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		r := metricRule{higher: d.Better == "higher", bound: math.NaN()}
		if d.Bound != nil {
			r.bound = *d.Bound
		}
		rules[d.Name] = r
	}
	return rules, nil
}

// readRuns collects every metric's value from the JSON result lines of a
// file, in line order.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(text, "{") {
			continue
		}
		var run struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(text), &run); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		for name, m := range run.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out, sc.Err()
}

func writeComparison(w io.Writer, rules map[string]metricRule, parent, change map[string][]float64) {
	fmt.Fprintf(w, "%-30s %32s %32s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, name := range sortedKeys(parent) {
		pv, cv := parent[name], change[name]
		rule, ok := rules[name]
		if !ok || len(cv) == 0 {
			continue
		}
		pq1, pm, pq3 := quartiles(pv)
		cq1, cm, cq3 := quartiles(cv)
		wins, pairs, v := rule.verdict(pv, cv)
		fmt.Fprintf(w, "%-30s %32s %32s %3d/%-3d  %s\n", name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", pm, pq1, pq3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", cm, cq1, cq3), wins, pairs, v)
	}
}

// verdict compares one metric's parent and change runs, paired by index:
// it returns the pairs the change won, the pairs compared, and the verdict.
func (rule metricRule) verdict(pv, cv []float64) (wins, pairs int, v string) {
	// better is how much a reads better than b in the metric's direction.
	better := func(a, b float64) float64 {
		if rule.higher {
			return a - b
		}
		return b - a
	}
	pairs = min(len(pv), len(cv))
	for i := 0; i < pairs; i++ {
		if better(cv[i], pv[i]) > 0 {
			wins++
		}
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(c, p) > 0
		}
	}
	pq1, pm, pq3 := quartiles(pv)
	_, cm, _ := quartiles(cv)
	switch {
	case pairs > 0 && 10*wins >= 9*pairs && better(cm, pm) > pq3-pq1:
		return wins, pairs, "gain"
	case !math.IsNaN(rule.bound) && spread(pv) > rule.bound && !allBetter:
		return wins, pairs, "unresolved"
	case !math.IsNaN(rule.bound) && -better(cm, pm) > rule.bound*math.Abs(pm):
		return wins, pairs, "regression"
	}
	return wins, pairs, "no change"
}

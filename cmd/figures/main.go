// Command figures regenerates every table and figure of the paper's
// evaluation from the simulator, printing terminal renditions and (with
// -out) writing CSV files and experiment artifacts suitable for replotting.
//
// Usage:
//
//	figures [-fig all|ID[,ID...]] [-seed N] [-trials N] [-bits N] [-out DIR]
//	        [-workers N] [-metrics] [-trace FILE]
//
// -metrics prints a counter report after single-run figures and embeds
// per-trial metrics snapshots in grid-figure artifacts; -trace FILE exports
// a Perfetto-loadable timeline of a single-run figure (2, 5, 6a, 6b, S, O,
// A). An id that is not in the figure map exits 2; "all" must stand alone.
//
// Figure map (see DESIGN.md for the experiment index):
//
//	2  — measuring time inside an SGX1 enclave (§3)
//	4  — eviction probability vs candidate-set size (§4.1)
//	5  — protected-access latency histogram by tree level (§5.1)
//	6a — Prime+Probe baseline probe-time trace (§5.2)
//	6b — this work's probe-time trace (§5.3)
//	7  — bit rate / error rate vs timing window (§5.4)
//	8  — error bits under noise environments (§5.4)
//	M  — mitigation ablation (extension of §5.5)
//	E  — eviction-phase × replacement-policy ablation (§5.3)
//	P  — aggregate rate vs parallel lanes (beyond the paper)
//	S  — detector-visible footprint, MEE channel vs LLC Prime+Probe
//	O  — SGX memory overhead vs working-set size
//	A  — victim-activity inference via shared-MEE contention
//	D  — HPC attack-monitor study (§5.5 defenses)
//
// The renderers live in internal/figures; meecc's sweep, noise, latency,
// stealth, overhead, timing and activity subcommands print the same
// figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"meecc/internal/figures"
)

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// run parses args (args[0] is the program name), renders the selected
// figures and returns the exit code: 2 for bad flags or figure ids, 1 for a
// figure that fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figures to regenerate: all, or a comma list of 2,4,5,6a,6b,7,8,M,E,P,S,O,A,D")
	seed := fs.Uint64("seed", 42, "simulation seed")
	trials := fs.Int("trials", 100, "trials per grid cell for figures 7/8; eviction tests per candidate size for figure 4")
	bits := fs.Int("bits", 256, "payload bits for figures 7/M")
	out := fs.String("out", "", "directory for CSV output (optional)")
	workers := fs.Int("workers", 0, "worker goroutines for multi-trial figures (0 = GOMAXPROCS)")
	metrics := fs.Bool("metrics", false, "print a metrics report after each single-run figure; embed snapshots in grid artifacts")
	tracePath := fs.String("trace", "", "write a timeline trace of single-run figures to this file (.csv = compact CSV, else Chrome trace-event JSON; when several figures are selected the last one wins)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ids, err := figures.Select(*fig)
	if err != nil {
		fmt.Fprintln(stderr, "figures:", err)
		return 2
	}
	env := &figures.Env{
		Seed: *seed, Trials: *trials, Bits: *bits, Window: 15000, Workers: *workers, OutDir: *out,
		Metrics: *metrics, TracePath: *tracePath, Stdout: stdout, Stderr: stderr,
	}
	for _, id := range ids {
		if err := env.Run(id); err != nil {
			fmt.Fprintf(stderr, "figures: figure %s: %v\n", id, err)
			return 1
		}
	}
	return 0
}

// Command bench is meecc's end-to-end benchmark. One invocation runs one
// workload in its own process for a fixed wall-clock budget, checks that the
// outputs are correct, prints a human-readable report on standard error, and
// prints one JSON object as the last line of standard output:
//
//	bash bench/run.sh --workload fresh --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics of a traced run and writes a Chrome trace
// under .bench_build/. The process exits non-zero when a check fails.
// README.md describes the workloads, the metrics and the comparison
// protocol; BENCHMARK.json at the repository root lists them with bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names and units; the smoke test holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_ref_s", "1/ref-s"},
	{"op_ref_ms_p50", "ref-ms"},
	{"op_ref_ms_p90", "ref-ms"},
	{"alloc_mb_per_op", "MB"},
	{"rss_mb_p90", "MB"},
}

var perLayer = []metricDef{
	{"platform.boot_ms_p50", "ms"},
	{"platform.boot_alloc_mb", "MB"},
	{"platform.snapshot_ms_p50", "ms"},
	{"platform.fork_ms_p50", "ms"},
	{"core.warm_ms_p50", "ms"},
	{"core.transmit_ms_p50", "ms"},
	{"core.chaos_trial_ms_p50", "ms"},
	{"core.warm_share", "ratio"},
	{"core.warms_per_trial", "1/op"},
	{"core.warm_state_heap_mb", "MB"},
	{"core.warm_computes", "count"},
	{"core.warm_disk_loads", "count"},
	{"core.warm_disk_spills", "count"},
	{"core.warm_spills_per_warm", "ratio"},
	{"core.warm_spill_ms_mean", "ms"},
	{"core.warm_disk_load_ms_mean", "ms"},
	{"snapstore.encode_ms_p50", "ms"},
	{"snapstore.decode_ms_p50", "ms"},
	{"snapstore.blob_mb", "MB"},
	{"snapstore.put_mb", "MB"},
	{"snapstore.put_ms_mean", "ms"},
	{"snapstore.get_ms_mean", "ms"},
	{"snapstore.evictions", "count"},
	{"exp.queue_wait_ms_mean", "ms"},
	{"exp.worker_busy_ratio", "ratio"},
	{"exp.marshal_ms", "ms"},
	{"serve.cold_ms_p50", "ms"},
	{"serve.cold_ms_p90", "ms"},
	{"serve.repeat_ms_p50", "ms"},
	{"serve.repeat_ms_p90", "ms"},
	{"serve.reuse_ms_p50", "ms"},
	{"serve.reuse_ms_p90", "ms"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.follow_ms_p50", "ms"},
	{"serve.artifact_ms_p50", "ms"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.memo_hit_ratio", "ratio"},
	{"journal.appends", "count"},
	{"journal.append_ms_mean", "ms"},
	{"journal.size_mb", "MB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"trace.overhead_pct", "%"},
	{"trace.spans_dropped", "count"},
	{"host.ms_per_ref_ms", "ms/ref-ms"},
	{"sim_kbps", "KBps"},
	{"sim_error_rate", "ratio"},
}

// options is one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// small shrinks every workload to its minimum number of ops; the smoke
	// test and the donor passes of a traced run use it.
	small bool
	// dir holds the run's files: served-workload temp dirs and the trace.
	dir string
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int
	checks            []string // failed correctness checks; empty when correct
	notes             []string // report lines: sample counts, simulated outcomes
	endToEnd          map[string]float64
	perLayer          map[string]float64 // traced runs only
	tracePath         string             // traced runs only
}

func (r *result) correct() bool { return len(r.checks) == 0 }

// metricValue is one metric in the JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the JSON object the run prints last: the end-to-end metrics,
// or the per-layer ones for a traced run.
func (r *result) line(traced bool) ([]byte, error) {
	defs, vals := endToEnd, r.endToEnd
	if traced {
		defs, vals = perLayer, r.perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

// report writes the human-readable summary.
func (r *result) report(w io.Writer, opt options) {
	fmt.Fprintf(w, "workload %s, seed %d, %s budget, trace %t: %d ops attempted, %d failed\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, r.attempted, r.failed)
	for _, vals := range []map[string]float64{r.endToEnd, r.perLayer} {
		for _, name := range sortedKeys(vals) {
			fmt.Fprintf(w, "  %-30s %g\n", name, vals[name])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if r.tracePath != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.tracePath)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}

// residentMB is the process's resident set in MB now.
func residentMB() (float64, error) {
	statm, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(statm))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", statm)
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	return float64(pages) * float64(os.Getpagesize()) / 1e6, err
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	opt := options{dir: ".bench_build"}
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+strings.Join(sortedKeys(workloads), ", "))
	flag.Uint64Var(&opt.seed, "seed", 7, "input seed: 7 for development, 1007 held out for checking claims")
	seconds := flag.Float64("seconds", 20, "wall-clock budget of the timed section")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	opt.trace = *trace == 1
	opt.seconds = time.Duration(*seconds * float64(time.Second))

	res, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	res.report(os.Stderr, opt)
	line, err := res.line(opt.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

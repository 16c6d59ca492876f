// Command meecc drives the MEE-cache covert channel and the studies around
// it on the simulated SGX machine.
//
// Usage:
//
//	meecc [send] [-msg TEXT] [-window CYCLES] [-seed N] [-noise KIND]
//	      [-policy NAME] [-reliable] [-inband] [-lanes N] [-v]
//	meecc sweep    [-seed N] [-bits N] [-trials N] [-workers N]    # figures -fig 7
//	meecc noise    [-seed N] [-window CYCLES] [-trials N] [-workers N]  # figures -fig 8
//	meecc batch    -spec FILE [-out DIR] [-workers N]            # declarative grid
//	meecc chaos    [-seed N] [-trials N] [-faults LIST] [-intensities LIST]
//	               [-payload N] [-out DIR] [-workers N]          # fault campaign
//	meecc latency  [-seed N]                   # figures -fig 5: latency by tree level
//	meecc stealth  [-seed N] [-window CYCLES]  # figures -fig S: MEE vs LLC P+P footprint
//	meecc overhead [-seed N]                   # figures -fig O: SGX slowdown curve
//	meecc timing   [-seed N]                   # figures -fig 2: §3 time sources
//	meecc activity [-seed N]                   # figures -fig A: victim-activity inference
//	meecc inspect  FILE                        # render a snapshot/trace/artifact
//	meecc serve    [-addr HOST:PORT] [-storedir DIR] [-storemax BYTES] [-workers N]
//	               [-journal FILE] [-maxruns N] [-maxpending N] [-runtimeout D]
//	               [-grace D] [-readtimeout D] [-writetimeout D] [-idletimeout D]
//	               [-loglevel L] [-logformat text|json] [-debugaddr HOST:PORT]
//	meecc submit   -spec FILE [-addr HOST:PORT] [-out DIR]
//	meecc top      [-addr HOST:PORT] [-interval D] [-once] [-require FAMILIES]
//	meecc hash     -spec FILE                  # print the spec's content hash
//
// serve runs the experiment service: POST /v1/runs accepts a spec, GET
// /v1/runs/{id}/events streams NDJSON progress (resumable with ?from=SEQ),
// DELETE /v1/runs/{id} cancels a run, GET /v1/runs/{id}/artifact returns the
// finished artifact (byte-identical to a local batch run of the same spec).
// Completed trials are memoized by content hash, and with -storedir warm
// channel state persists on disk across submissions and restarts.
//
// With -journal the service is crash-safe: admitted specs and every
// completed trial land in a write-ahead log before they are acknowledged,
// so a kill -9 mid-run loses nothing that committed — restart with the same
// -journal and resubmit the spec, and only the uncommitted trials
// re-execute, yielding a byte-identical artifact. Admission is bounded
// (-maxruns executing, -maxpending queued, then 429 + Retry-After), runs
// can carry a -runtimeout deadline, and SIGTERM/SIGINT drains in-flight
// runs for up to -grace before checkpointing the journal and exiting.
//
// submit is the matching client: it posts a spec, follows the event stream,
// and writes the artifact under -out. It retries refused connections and
// admission pushback with exponential backoff, reconnects severed event
// streams at the last seen offset, and resubmits runs a server restart
// interrupted. On success it prints a wall-clock summary (queue wait, run
// duration, trials executed vs memoized) computed from the server's own
// event timestamps.
//
// serve always exposes wall-clock operational telemetry, strictly separate
// from the sim-clock metrics that feed artifacts: GET /metrics serves a
// Prometheus text exposition, GET /healthz reports liveness (with a degraded
// flag after journal append failures or store self-heals), GET /readyz flips
// to 503 while draining, and GET /v1/runs/{id}/trace exports a run's
// wall-clock lifecycle as Chrome trace-event JSON. Structured logs go to
// stderr (-loglevel, -logformat), and -debugaddr opens net/http/pprof on a
// separate listener. top renders those metrics as a live terminal dashboard
// polling -addr every -interval; with -once it prints a single snapshot, and
// -require FAM1,FAM2 makes it exit nonzero when families are missing (the CI
// scrape check).
//
// Noise kinds: none, memory, mee512, mee4k. Policies: lru (default),
// tree-plru, bit-plru, fifo, random, nru, srrip.
//
// Every command additionally accepts -cpuprofile FILE and -memprofile FILE
// to capture pprof profiles of the run (inspect with `go tool pprof FILE`),
// plus the observability flags: -metrics prints a counter/histogram report
// after the run, -metricsout FILE writes the snapshot as JSON, and
// -trace FILE exports a sim-clock timeline (Chrome trace-event JSON for
// Perfetto, or CSV when FILE ends in .csv). Grid subcommands (sweep, noise,
// batch, chaos) embed per-trial metrics snapshots in the artifact instead
// of tracing.
//
// sweep, noise, latency, stealth, overhead, timing and activity are aliases
// of `figures -fig` 7, 8, 5, S, O, 2 and A (internal/figures): each prints
// exactly what the figure prints at the same -seed, -trials and -bits (the
// window is -window for noise and stealth, 15000 cycles in figures), and
// writes no files.
//
// The sweep, noise, batch and chaos subcommands run on the internal/exp
// experiment harness: every (cell, trial) pair fans out over a worker
// pool, per-trial seeds derive deterministically from the base seed, and
// results are byte-identical at any worker count. batch reads a JSON spec
// (see examples/specs/) and writes a versioned artifact plus a run
// manifest under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"meecc"
	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/fault"
	"meecc/internal/figures"
	"meecc/internal/obs"
	"meecc/internal/trace"
)

var (
	msg      = flag.String("msg", "MEE CACHE COVERT CHANNEL", "message the trojan transmits")
	window   = flag.Int64("window", 15000, "timing window Tsync in cycles")
	seed     = flag.Uint64("seed", 42, "simulation seed")
	noise    = flag.String("noise", "none", "background noise: none, memory, mee512, mee4k")
	policy   = flag.String("policy", "", "MEE cache replacement policy override")
	reliable = flag.Bool("reliable", false, "use FEC framing (Hamming(7,4) + CRC-16 + ARQ)")
	inband   = flag.Bool("inband", false, "synchronize in-band (no agreed transmission start)")
	lanes    = flag.Int("lanes", 1, "parallel trojan lanes (1 or 2)")
	bits     = flag.Int("bits", 256, "payload bits for sweep (noise always sends 128)")
	trials   = flag.Int("trials", 1, "trials per grid cell for sweep/noise/chaos")
	workers  = flag.Int("workers", 0, "worker goroutines for sweep/noise/batch (0 = GOMAXPROCS)")
	specPath = flag.String("spec", "", "JSON experiment spec for batch")
	outDir   = flag.String("out", "results", "artifact directory for batch/chaos")
	verbose  = flag.Bool("v", false, "print the per-bit probe trace")

	faults      = flag.String("faults", "all", "chaos fault kinds: all, none, or a comma list (migration,timer,paging,meeflush,storm)")
	intensities = flag.String("intensities", "0,1,2,4,8", "chaos fault intensities (comma list)")
	payloadLen  = flag.Int("payload", 16, "chaos payload length in bytes")

	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")

	addr         = flag.String("addr", "127.0.0.1:8311", "listen/target address for serve/submit/top")
	storeDir     = flag.String("storedir", "", "snapstore directory for serve's warm-state disk tier (empty = in-memory only)")
	storeMax     = flag.Int64("storemax", 0, "snapstore size bound in bytes (0 = unbounded)")
	journalPath  = flag.String("journal", "", "serve's write-ahead log; makes runs and trials durable across kill -9 (empty = no durability)")
	maxRuns      = flag.Int("maxruns", 4, "serve: max concurrently executing runs")
	maxPending   = flag.Int("maxpending", 64, "serve: max queued runs before submissions get 429")
	runTimeout   = flag.Duration("runtimeout", 0, "serve: per-run wall-clock deadline (0 = none)")
	grace        = flag.Duration("grace", 10*time.Second, "serve: shutdown grace period for in-flight runs")
	readTimeout  = flag.Duration("readtimeout", 30*time.Second, "serve: HTTP read timeout per request")
	writeTimeout = flag.Duration("writetimeout", 10*time.Minute, "serve: HTTP write timeout (bounds event-stream lifetime)")
	idleTimeout  = flag.Duration("idletimeout", 2*time.Minute, "serve: HTTP keep-alive idle timeout")
	logLevel     = flag.String("loglevel", "info", "serve: structured-log threshold (debug, info, warn, error)")
	logFormat    = flag.String("logformat", "text", "serve: structured-log encoding (text = logfmt, json)")
	debugAddr    = flag.String("debugaddr", "", "serve: open net/http/pprof on this extra address (empty = off)")
	topInterval  = flag.Duration("interval", 2*time.Second, "top: poll interval")
	topOnce      = flag.Bool("once", false, "top: print one snapshot and exit")
	topRequire   = flag.String("require", "", "top: comma list of metric families that must be present (exit nonzero otherwise)")

	metricsOn  = flag.Bool("metrics", false, "collect metrics and print a report after the run")
	metricsOut = flag.String("metricsout", "", "write the metrics snapshot JSON to this file")
	tracePath  = flag.String("trace", "", "write a timeline trace to this file (.csv = compact CSV, anything else = Chrome trace-event JSON for Perfetto)")
)

// commands maps each subcommand that is not a figure alias to its runner.
var commands = map[string]func() error{
	"send":    runSend,
	"batch":   runBatch,
	"chaos":   runChaos,
	"inspect": runInspect,
	"serve":   runServe,
	"submit":  runSubmit,
	"top":     runTop,
	"hash":    runHash,
}

// figureAliases maps the study subcommands onto the figures that render
// them.
var figureAliases = map[string]string{
	"sweep":    "7",
	"noise":    "8",
	"latency":  "5",
	"stealth":  "S",
	"overhead": "O",
	"timing":   "2",
	"activity": "A",
}

func main() {
	cmd, args := splitCommand(os.Args[1:])
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	run, ok := command(cmd)
	if !ok {
		fmt.Fprintf(os.Stderr, "meecc: unknown command %q (have: send, sweep, noise, batch, chaos, latency, stealth, overhead, timing, activity, inspect, serve, submit, top, hash)\n", cmd)
		os.Exit(2)
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "meecc:", err)
		os.Exit(2)
	}
	err = run()
	stopProfiles() // before exit: os.Exit skips deferred writers
	if err != nil {
		fmt.Fprintln(os.Stderr, "meecc:", err)
		os.Exit(1)
	}
}

// splitCommand separates the subcommand from its flags: a first argument
// that does not start with '-' names the command, and without one the
// command is send.
func splitCommand(args []string) (cmd string, rest []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "send", args
}

// command returns the runner for a subcommand name.
func command(name string) (func() error, bool) {
	if id, ok := figureAliases[name]; ok {
		return func() error { return env().Run(id) }, true
	}
	run, ok := commands[name]
	return run, ok
}

// env carries the parsed flags into internal/figures: the figure aliases
// render through it without writing files, and the other subcommands use its
// grid runner and observer set-up.
func env() *figures.Env {
	return &figures.Env{
		Seed: *seed, Trials: *trials, Bits: *bits, Window: meecc.Cycles(*window), Workers: *workers,
		Metrics: *metricsOn, MetricsOut: *metricsOut, TracePath: *tracePath,
		Stdout: os.Stdout, Stderr: os.Stderr,
	}
}

// startProfiles honors -cpuprofile/-memprofile. The returned stop function
// finishes the CPU profile and snapshots the heap; it must run before
// os.Exit.
func startProfiles() (stop func(), err error) {
	stop = func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *memprofile == "" {
		return stop, nil
	}
	cpuStop := stop
	stop = func() {
		cpuStop()
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "meecc: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-set statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "meecc: memprofile:", err)
		}
	}
	return stop, nil
}

func channelConfig() (meecc.ChannelConfig, error) {
	cfg := meecc.DefaultChannelConfig(*seed)
	cfg.Window = meecc.Cycles(*window)
	cfg.Bits = meecc.BitsFromString(*msg)
	if err := core.CheckMEEPolicy(*policy); err != nil {
		return cfg, fmt.Errorf("-policy: %w", err)
	}
	cfg.Options.MEEPolicy = *policy
	kind, err := core.ParseNoiseKind(*noise)
	if err != nil {
		return cfg, err
	}
	cfg.Noise = kind
	return cfg, nil
}

func runSend() error {
	cfg, err := channelConfig()
	if err != nil {
		return err
	}
	e := env()
	o := e.Observer()
	cfg.Obs = o
	switch {
	case *reliable:
		fmt.Printf("transmitting %d payload bytes with FEC framing...\n", len(*msg))
		res, err := meecc.RunReliable(cfg, []byte(*msg))
		if err != nil {
			return err
		}
		fmt.Printf("decoded : %q (CRC ok, %d corrections, %d attempt(s))\n",
			res.Payload, res.Stats.Corrections, res.Attempts)
		fmt.Printf("raw     : %.1f KBps, %d channel bit errors\n", res.Channel.KBps, res.Channel.BitErrors)
		fmt.Printf("goodput : %.1f KBps after coding overhead\n", res.GoodputKBps)
		return e.FinishObs(o)

	case *inband:
		fmt.Printf("transmitting %d bits with in-band synchronization...\n", len(cfg.Bits))
		res, err := meecc.RunInBandChannel(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("locked on phase attempt %d; decoded %q\n", res.Attempt, meecc.StringFromBits(res.Received))
		fmt.Printf("%d/%d bit errors, %.1f KBps effective\n", res.BitErrors, len(res.Sent), res.KBps)
		return e.FinishObs(o)

	case *lanes > 1:
		if pad := len(cfg.Bits) % *lanes; pad != 0 {
			cfg.Bits = append(cfg.Bits, make([]byte, *lanes-pad)...)
		}
		fmt.Printf("transmitting %d bits over %d lanes...\n", len(cfg.Bits), *lanes)
		res, err := meecc.RunParallelChannel(cfg, *lanes)
		if err != nil {
			return err
		}
		fmt.Printf("decoded %q\n", meecc.StringFromBits(res.Received))
		fmt.Printf("%.1f KBps aggregate, %d/%d bit errors (per lane: %v)\n",
			res.KBps, res.BitErrors, len(res.Sent), res.LaneErrors)
		return e.FinishObs(o)
	}

	fmt.Printf("transmitting %d bits (%d bytes) over the MEE cache covert channel...\n",
		len(cfg.Bits), len(*msg))
	res, err := meecc.RunChannel(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nsetup: eviction set of %d ways found in %.2f ms of machine time; spy threshold %d cycles\n",
		res.EvictionSetSize, float64(res.SetupCycles)/4e6, res.SpyThreshold)
	fmt.Printf("channel: %.1f KBps, %d/%d bit errors (%.2f%%)\n",
		res.KBps, res.BitErrors, len(res.Sent), 100*res.ErrorRate)
	fmt.Printf("decoded: %q\n", meecc.StringFromBits(res.Received))
	if *verbose {
		probes := make([]float64, len(res.ProbeTimes))
		for i, p := range res.ProbeTimes {
			probes[i] = float64(p)
		}
		fmt.Printf("probe trace: %s\n", trace.Sparkline(probes))
		for i := range res.Sent {
			mark := ""
			if res.Received[i] != res.Sent[i] {
				mark = " <-- error"
			}
			fmt.Printf("  bit %3d sent %d recv %d probe %4d%s\n",
				i, res.Sent[i], res.Received[i], res.ProbeTimes[i], mark)
		}
	}
	return e.FinishObs(o)
}

// runBatch runs a JSON-described grid end to end: spec → worker-pool
// fan-out → aggregated statistics → artifact + manifest under -out.
func runBatch() error {
	if *specPath == "" {
		return fmt.Errorf("batch requires -spec FILE (see examples/specs/)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := exp.ParseSpec(data)
	if err != nil {
		return err
	}
	rep, err := env().RunGrid(spec)
	if err != nil {
		return err
	}
	artifact, manifest, err := exp.WriteArtifacts(*outDir, rep)
	if err != nil {
		return err
	}

	// Summary: one row per cell, every aggregated metric's mean ± CI.
	var metrics []string
	if len(rep.Cells) > 0 {
		for name := range rep.Cells[0].Stats {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
	}
	header := []string{"cell", "trials"}
	for _, m := range metrics {
		header = append(header, m+" (mean ± 95% CI)")
	}
	tb := trace.NewTable(header...)
	for _, c := range rep.Cells {
		row := []any{c.Key, fmt.Sprintf("%d (%d failed)", c.Trials, c.Failures)}
		for _, m := range metrics {
			s := c.Stat(m)
			row = append(row, fmt.Sprintf("%.4g ± %.4g", s.Mean, s.CI95))
		}
		tb.Row(row...)
	}
	tb.Render(os.Stdout)
	fmt.Printf("\n%d cells × %d trials on %d workers in %s (%d failures)\n",
		len(rep.Cells), spec.Trials, rep.Workers, rep.WallTime.Round(1e6), rep.Failures())
	if rep.Partial {
		skipped := 0
		for _, tr := range rep.Trials {
			if tr.Err == exp.SkippedErr {
				skipped++
			}
		}
		fmt.Printf("PARTIAL RUN: interrupted with %d trials never started (artifact flagged partial)\n", skipped)
	}
	fmt.Printf("artifact: %s\nmanifest: %s\n", artifact, manifest)
	// Partial failures are data (recorded per trial in the artifact), but a
	// run where nothing succeeded should not look like success to scripts.
	if total := len(rep.Cells) * spec.Trials; rep.Failures() == total {
		return fmt.Errorf("all %d trials failed (first error recorded in %s)", total, artifact)
	}
	return nil
}

// runChaos sweeps the fault-injection campaign over (kind × intensity),
// comparing the static single-shot transfer against the adaptive resilient
// session in every cell, and writes artifact + manifest + CSV under -out.
func runChaos() error {
	kinds, err := fault.ParseKinds(*faults)
	if err != nil {
		return err
	}
	if len(kinds) == 0 {
		return fmt.Errorf("chaos requires at least one fault kind")
	}
	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	var levels []string
	for _, v := range strings.Split(*intensities, ",") {
		v = strings.TrimSpace(v)
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return fmt.Errorf("chaos intensity %q: %v", v, err)
		}
		levels = append(levels, v)
	}
	spec := &exp.Spec{
		Name:     "chaos",
		Study:    "chaos",
		BaseSeed: *seed,
		Trials:   *trials,
		Params:   map[string]string{"payload": strconv.Itoa(*payloadLen)},
		Axes: []exp.Axis{
			{Name: "faults", Values: kindNames},
			{Name: "intensity", Values: levels},
		},
	}
	rep, err := env().RunGrid(spec)
	if err != nil {
		return err
	}
	artifact, manifest, err := exp.WriteArtifacts(*outDir, rep)
	if err != nil {
		return err
	}
	csvPath, err := writeChaosCSV(*outDir, rep)
	if err != nil {
		return err
	}

	tb := trace.NewTable("faults", "intensity", "static BER", "static ok", "adaptive ok", "goodput KBps (static/adaptive)", "trials")
	for _, c := range rep.Cells {
		kind, _ := c.Cell.Get("faults")
		level, _ := c.Cell.Get("intensity")
		tb.Row(kind, level,
			fmt.Sprintf("%.3f", c.Stat("static_ber").Mean),
			fmt.Sprintf("%.0f%%", 100*c.Stat("static_delivered").Mean),
			fmt.Sprintf("%.0f%%", 100*c.Stat("adaptive_delivered").Mean),
			fmt.Sprintf("%.2f / %.2f", c.Stat("static_goodput_kbps").Mean, c.Stat("adaptive_goodput_kbps").Mean),
			fmt.Sprintf("%d (%d failed)", c.Trials, c.Failures))
	}
	tb.Render(os.Stdout)
	if rep.Partial {
		fmt.Println("PARTIAL RUN: interrupted before every trial started (artifact flagged partial)")
	}
	fmt.Printf("artifact: %s\nmanifest: %s\ncsv: %s\n", artifact, manifest, csvPath)
	return nil
}

// writeChaosCSV renders the per-cell aggregates as one CSV row per cell
// (axis values, then every metric's mean and 95% CI in sorted order).
func writeChaosCSV(dir string, rep *exp.Report) (string, error) {
	var metrics []string
	seen := map[string]bool{}
	for _, c := range rep.Cells {
		for name := range c.Stats {
			if !seen[name] {
				seen[name] = true
				metrics = append(metrics, name)
			}
		}
	}
	sort.Strings(metrics)

	header := []string{"faults", "intensity", "trials", "failures"}
	for _, m := range metrics {
		header = append(header, m+"_mean", m+"_ci95")
	}
	var rows [][]string
	for _, c := range rep.Cells {
		kind, _ := c.Cell.Get("faults")
		level, _ := c.Cell.Get("intensity")
		row := []string{kind, level, strconv.Itoa(c.Trials), strconv.Itoa(c.Failures)}
		for _, m := range metrics {
			s := c.Stat(m)
			row = append(row,
				strconv.FormatFloat(s.Mean, 'g', -1, 64),
				strconv.FormatFloat(s.CI95, 'g', -1, 64))
		}
		rows = append(rows, row)
	}
	path := filepath.Join(dir, rep.Spec.Name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteCSVRecords(f, header, rows); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// runInspect renders an observability file as a text report. It sniffs the
// payload: a metrics snapshot (from -metricsout or an artifact's obs block),
// a Chrome trace-event JSON (from -trace), or an experiment artifact (from
// batch/chaos), and exits non-zero on anything malformed.
func runInspect() error {
	args := flag.CommandLine.Args()
	if len(args) != 1 {
		return fmt.Errorf("usage: meecc inspect FILE (a -metricsout snapshot, a -trace JSON, or a batch artifact)")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}

	// An experiment artifact has a "study" discriminator; a metrics snapshot
	// has counters/histograms; a trace has traceEvents. Try in that order so
	// schema-version errors surface from the matching decoder.
	var kind struct {
		Study         json.RawMessage `json:"study"`
		Cells         json.RawMessage `json:"cells"`
		TraceEvents   json.RawMessage `json:"traceEvents"`
		SchemaVersion json.RawMessage `json:"schema_version"`
		Counters      json.RawMessage `json:"counters"`
	}
	if err := json.Unmarshal(data, &kind); err != nil {
		if !json.Valid(data) {
			return fmt.Errorf("inspect: %s is not JSON: %v", args[0], err)
		}
		return inspectSchemaError(args[0], data)
	}
	switch {
	case kind.TraceEvents != nil:
		sum, err := obs.ValidateChromeTrace(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", args[0], err)
		}
		fmt.Printf("%s: Chrome trace-event JSON (load in https://ui.perfetto.dev)\n", args[0])
		sum.Render(os.Stdout)
		return nil

	case kind.Study != nil && kind.Cells != nil:
		art, err := exp.UnmarshalArtifact(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", args[0], err)
		}
		return inspectArtifact(args[0], art)

	case kind.SchemaVersion != nil || kind.Counters != nil:
		snap, err := obs.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", args[0], err)
		}
		fmt.Printf("%s: metrics snapshot (schema v%d)\n\n", args[0], snap.SchemaVersion)
		snap.Render(os.Stdout)
		return nil

	default:
		// Valid JSON, but none of the discriminating fields: say what this
		// command can render instead of surfacing a decoder's unmarshal
		// error about a schema the file never claimed to follow.
		return inspectSchemaError(args[0], data)
	}
}

// inspectSchemaError explains, with the offending path and the top-level
// keys actually found, which schemas `meecc inspect` accepts.
func inspectSchemaError(path string, data []byte) error {
	found := "not a JSON object"
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err == nil {
		if len(top) == 0 {
			found = "an empty JSON object"
		} else {
			keys := make([]string, 0, len(top))
			for k := range top {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			found = "top-level keys: " + strings.Join(keys, ", ")
		}
	}
	return fmt.Errorf(`inspect: %s does not match any schema this command renders (%s)
expected one of:
  experiment artifact    discriminators "study" + "cells"             (from meecc batch / chaos / sweep)
  metrics snapshot       discriminators "schema_version" + "counters" (from -metricsout or -metrics)
  Chrome trace-event     discriminator  "traceEvents"                 (from -trace)`, path, found)
}

// inspectArtifact summarizes a batch/chaos artifact: the grid shape, then —
// when trials carry metrics snapshots — the summed semantic counters across
// all trials.
func inspectArtifact(path string, art *exp.Artifact) error {
	fmt.Printf("%s: %s artifact %q (schema v%d)\n", path, art.Study, art.Name, art.SchemaVersion)
	fmt.Printf("grid:    %d cells x %d trials, base seed %d\n", len(art.Cells), art.TrialsPerCell, art.BaseSeed)
	failures := 0
	observed := 0
	total := obs.NewSnapshot()
	for i := range art.Trials {
		tr := &art.Trials[i]
		if tr.Err != "" {
			failures++
		}
		if tr.Obs == nil {
			continue
		}
		observed++
		for name, v := range tr.Obs.Counters {
			total.Counters[name] += v
		}
	}
	fmt.Printf("trials:  %d recorded, %d failed\n", len(art.Trials), failures)
	if art.Partial {
		fmt.Println("partial: run was interrupted before every trial dispatched")
	}
	if observed == 0 {
		fmt.Println("metrics: none embedded (run with -metrics or \"metrics\": true in the spec)")
		return nil
	}
	fmt.Printf("metrics: summed over %d trial snapshots\n\n", observed)
	total.Render(os.Stdout)
	return nil
}

// Command meecc drives the MEE-cache covert channel and the studies around
// it on the simulated SGX machine.
//
// Usage, with each subcommand's flags:
//
//	meecc [send]   [-msg TEXT] [-window CYCLES] [-seed N] [-noise KIND]
//	               [-policy NAME] [-reliable | -inband | -lanes 1|2] [-v] [OBS]
//	meecc sweep    [FIG] [OBS]  # figures -fig 7: bit and error rate vs window
//	meecc noise    [FIG] [OBS]  # figures -fig 8: error bits under noise
//	meecc latency  [FIG] [OBS]  # figures -fig 5: latency by tree level
//	meecc stealth  [FIG] [OBS]  # figures -fig S: MEE vs LLC P+P footprint
//	meecc overhead [FIG] [OBS]  # figures -fig O: SGX slowdown curve
//	meecc timing   [FIG] [OBS]  # figures -fig 2: §3 time sources
//	meecc activity [FIG] [OBS]  # figures -fig A: victim-activity inference
//	meecc batch    -spec FILE [-out DIR] [-workers N] [-metrics]  # declarative grid
//	meecc chaos    [-seed N] [-trials N] [-faults LIST] [-intensities LIST]
//	               [-payload N] [-out DIR] [-workers N] [-metrics]  # fault campaign
//	meecc inspect  FILE         # render a snapshot/trace/artifact
//	meecc serve    [-addr HOST:PORT] [-storedir DIR] [-storemax BYTES] [-workers N]
//	               [-journal FILE] [-maxruns N] [-maxpending N] [-runtimeout D]
//	               [-grace D] [-readtimeout D] [-writetimeout D] [-idletimeout D]
//	               [-loglevel L] [-logformat text|json] [-debugaddr HOST:PORT]
//	meecc submit   -spec FILE [-addr HOST:PORT] [-out DIR]
//	meecc top      [-addr HOST:PORT] [-interval D] [-once] [-require FAMILIES]
//	meecc hash     -spec FILE   # print the spec's content hash
//
// FIG is [-seed N] [-trials N] [-bits N] [-window CYCLES] [-workers N], the
// settings internal/figures renders with. OBS is the observability flags:
// -metrics prints a counter/histogram report after the run, -metricsout
// FILE writes the snapshot as JSON, and -trace FILE exports a sim-clock
// timeline (Chrome trace-event JSON for Perfetto, or CSV when FILE ends in
// .csv). batch and chaos take only -metrics, which embeds per-trial metrics
// snapshots in the artifact. Every subcommand also takes -cpuprofile FILE
// and -memprofile FILE to capture pprof profiles of the run (inspect with
// `go tool pprof FILE`). A flag the subcommand does not declare, or an
// argument left over after its flags, exits 2.
//
// send transmits -msg over the raw channel (Algorithm 2), or in one of
// three other modes: -reliable sends it through the adaptive ARQ session
// (RunResilient: Hamming(7,4) + CRC-16 chunks, retransmission,
// recalibration, resync and graceful degradation), -inband synchronizes
// without an agreed start, and -lanes 2 runs two trojan lanes. The modes
// exclude each other.
//
// serve runs the experiment service: POST /v1/runs accepts a spec, GET
// /v1/runs/{id}/events streams NDJSON progress (resumable with ?from=SEQ),
// DELETE /v1/runs/{id} cancels a run, GET /v1/runs/{id}/artifact returns the
// finished artifact (byte-identical to a local batch run of the same spec).
// Completed trials are memoized by content hash, and with -storedir warm
// channel state persists on disk across submissions and restarts. The
// store holds at most -storemax bytes (256 MiB by default, 0 = unbounded),
// evicting its least recently used blobs first, so blobs that no warm key
// reaches any more are eventually reclaimed.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"meecc"
	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/fault"
	"meecc/internal/figures"
	"meecc/internal/obs"
	"meecc/internal/trace"
)

// A subcommand declares the flags its code reads on fs and returns the
// function that runs it once fs has parsed the command line. e carries the
// subcommand's stdout and stderr; the subcommands that use internal/figures'
// grid runner or observer set-up bind their flags to its fields.
type subcommand func(fs *flag.FlagSet, e *figures.Env) func() error

// commands maps each subcommand that is not a figure alias to its
// declaration.
var commands = map[string]subcommand{
	"send":    sendCmd,
	"batch":   batchCmd,
	"chaos":   chaosCmd,
	"inspect": inspectCmd,
	"serve":   serveCmd,
	"submit":  submitCmd,
	"top":     topCmd,
	"hash":    hashCmd,
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

// usageError is a command line that names a known subcommand and only flags
// it declares, but still cannot run, such as two send modes at once. It
// exits 2, as an undeclared flag does.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(run(os.Args, os.Stdout, os.Stderr))
}

// run parses args (args[0] is the program name), runs the subcommand and
// returns the exit code: 2 for an unknown subcommand, a flag it does not
// declare, a leftover argument or a usageError; 1 for a run that fails; 0
// otherwise, -h included.
func run(args []string, stdout, stderr io.Writer) int {
	name, rest := splitCommand(args[1:])
	cmd, ok := command(name)
	if !ok {
		fmt.Fprintf(stderr, "meecc: unknown command %q (have: send, sweep, noise, batch, chaos, latency, stealth, overhead, timing, activity, inspect, serve, submit, top, hash)\n", name)
		return 2
	}
	e := &figures.Env{Stdout: stdout, Stderr: stderr}
	fs, prof, runCmd := declare(name, cmd, e)
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// inspect reads its FILE argument; no other subcommand takes one.
	if fs.NArg() > 0 && name != "inspect" {
		fmt.Fprintf(stderr, "meecc %s: unexpected argument %q after the flags\n", name, fs.Arg(0))
		return 2
	}
	stopProfiles, err := prof.start(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "meecc:", err)
		return 2
	}
	err = runCmd()
	stopProfiles()
	var usage usageError
	switch {
	case errors.As(err, &usage):
		fmt.Fprintf(stderr, "meecc %s: %v\n", name, err)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, "meecc:", err)
		return 1
	}
	return 0
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

// command returns the declaration of a subcommand name.
func command(name string) (subcommand, bool) {
	if id, ok := figureAliases[name]; ok {
		return figureCmd(id), true
	}
	cmd, ok := commands[name]
	return cmd, ok
}

// declare builds the flag set of the named subcommand: -cpuprofile and
// -memprofile, which every subcommand takes, then the subcommand's own
// flags. It returns the set, the profiles it fills and the subcommand's
// runner.
func declare(name string, cmd subcommand, e *figures.Env) (*flag.FlagSet, *profiles, func() error) {
	fs := flag.NewFlagSet("meecc "+name, flag.ContinueOnError)
	fs.SetOutput(e.Stderr)
	p := &profiles{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (taken at exit) to this file")
	return fs, p, cmd(fs, e)
}

// observe declares -metrics, -metricsout and -trace, the settings of e's
// observer set-up.
func observe(fs *flag.FlagSet, e *figures.Env) {
	fs.BoolVar(&e.Metrics, "metrics", false, "collect metrics and print a report after the run")
	fs.StringVar(&e.MetricsOut, "metricsout", "", "write the metrics snapshot JSON to this file")
	fs.StringVar(&e.TracePath, "trace", "", "write a timeline trace to this file (.csv = compact CSV, anything else = Chrome trace-event JSON for Perfetto)")
}

// figureCmd declares a figure alias: the settings internal/figures renders
// with, and the observability flags. It prints what `figures -fig id`
// prints and writes no files.
func figureCmd(id string) subcommand {
	return func(fs *flag.FlagSet, e *figures.Env) func() error {
		fs.Uint64Var(&e.Seed, "seed", 42, "simulation seed")
		fs.IntVar(&e.Trials, "trials", 1, "trials per grid cell (sweep, noise)")
		fs.IntVar(&e.Bits, "bits", 256, "payload bits (sweep; noise always sends 128)")
		window := fs.Int64("window", 15000, "timing window Tsync in cycles (noise, stealth)")
		fs.IntVar(&e.Workers, "workers", 0, "grid worker goroutines (0 = GOMAXPROCS)")
		observe(fs, e)
		return func() error {
			e.Window = meecc.Cycles(*window)
			return e.Run(id)
		}
	}
}

// profiles holds -cpuprofile and -memprofile.
type profiles struct{ cpu, mem string }

// start begins the CPU profile. The returned stop function finishes it and
// writes the heap profile; it must run before the process exits, as
// os.Exit skips deferred writers.
func (p *profiles) start(stderr io.Writer) (stop func(), err error) {
	stop = func() {}
	if p.cpu != "" {
		f, err := os.Create(p.cpu)
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
	if p.mem == "" {
		return stop, nil
	}
	cpuStop := stop
	stop = func() {
		cpuStop()
		f, err := os.Create(p.mem)
		if err != nil {
			fmt.Fprintln(stderr, "meecc: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-set statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "meecc: memprofile:", err)
		}
	}
	return stop, nil
}

// sendCmd transmits -msg in one of four modes: the raw channel, the adaptive
// ARQ session (-reliable), in-band synchronization (-inband) or two lanes
// (-lanes 2).
func sendCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	msg := fs.String("msg", "MEE CACHE COVERT CHANNEL", "message the trojan transmits")
	window := fs.Int64("window", 15000, "timing window Tsync in cycles")
	seed := fs.Uint64("seed", 42, "simulation seed")
	noise := fs.String("noise", "none", "background noise: none, memory, mee512, mee4k")
	policy := fs.String("policy", "", "MEE cache replacement policy override")
	reliable := fs.Bool("reliable", false, "send through the adaptive ARQ session (Hamming(7,4) + CRC-16 chunks, retransmission, recalibration, resync)")
	inband := fs.Bool("inband", false, "synchronize in-band (no agreed transmission start)")
	lanes := fs.Int("lanes", 1, "parallel trojan lanes (1 or 2)")
	verbose := fs.Bool("v", false, "print the per-bit probe trace (raw mode only)")
	observe(fs, e)
	return func() error {
		if *lanes < 1 || *lanes > 2 {
			return usageError(fmt.Sprintf("-lanes %d: want 1 or 2", *lanes))
		}
		modes := 0
		for _, on := range []bool{*reliable, *inband, *lanes == 2} {
			if on {
				modes++
			}
		}
		if modes > 1 {
			return usageError("-reliable, -inband and -lanes 2 are separate modes; choose one")
		}
		if modes > 0 && *verbose {
			return usageError("-v prints the raw channel's per-bit trace; -reliable, -inband and -lanes 2 have none")
		}
		cfg := meecc.DefaultChannelConfig(*seed)
		cfg.Window = meecc.Cycles(*window)
		cfg.Bits = meecc.BitsFromString(*msg)
		if err := core.CheckMEEPolicy(*policy); err != nil {
			return fmt.Errorf("-policy: %w", err)
		}
		cfg.Options.MEEPolicy = *policy
		kind, err := core.ParseNoiseKind(*noise)
		if err != nil {
			return err
		}
		cfg.Noise = kind
		o := e.Observer()
		cfg.Obs = o
		switch {
		case *reliable:
			err = sendReliable(e.Stdout, cfg, *msg)
		case *inband:
			err = sendInBand(e.Stdout, cfg)
		case *lanes == 2:
			err = sendLanes(e.Stdout, cfg, *lanes)
		default:
			err = sendRaw(e.Stdout, cfg, *verbose)
		}
		if err != nil {
			return err
		}
		return e.FinishObs(o)
	}
}

// sendReliable runs the adaptive ARQ session. On failure it prints every
// action the session took before giving up.
func sendReliable(w io.Writer, cfg meecc.ChannelConfig, msg string) error {
	fmt.Fprintf(w, "transmitting %d payload bytes through the adaptive ARQ session...\n", len(msg))
	res, err := meecc.RunResilient(cfg, []byte(msg))
	if err != nil {
		if res != nil {
			fmt.Fprintf(w, "session failed after %d rounds, %d/%d chunks delivered; actions:\n",
				res.Report.Rounds, res.ChunksDelivered, res.Chunks)
			for _, a := range res.Report.Actions {
				fmt.Fprintf(w, "  %v\n", a)
			}
		}
		return err
	}
	r := res.Report
	fmt.Fprintf(w, "delivered: %q (%d chunks, CRC ok)\n", res.Payload, res.Chunks)
	fmt.Fprintf(w, "session  : %d rounds, %d retransmits, %d recalibrations, %d resyncs\n",
		r.Rounds, r.Retransmits, r.Recals, r.Resyncs)
	fmt.Fprintf(w, "final    : window %d cycles, repetition %d\n", r.FinalWindow, r.FinalRepetition)
	fmt.Fprintf(w, "goodput  : %.2f KBps over the whole session (pilots, control gaps and retransmits included)\n", res.GoodputKBps)
	return nil
}

func sendInBand(w io.Writer, cfg meecc.ChannelConfig) error {
	fmt.Fprintf(w, "transmitting %d bits with in-band synchronization...\n", len(cfg.Bits))
	res, err := meecc.RunInBandChannel(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "locked on phase attempt %d; decoded %q\n", res.Attempt, meecc.StringFromBits(res.Received))
	fmt.Fprintf(w, "%d/%d bit errors, %.1f KBps effective\n", res.BitErrors, len(res.Sent), res.KBps)
	return nil
}

func sendLanes(w io.Writer, cfg meecc.ChannelConfig, lanes int) error {
	if pad := len(cfg.Bits) % lanes; pad != 0 {
		cfg.Bits = append(cfg.Bits, make([]byte, lanes-pad)...)
	}
	fmt.Fprintf(w, "transmitting %d bits over %d lanes...\n", len(cfg.Bits), lanes)
	res, err := meecc.RunParallelChannel(cfg, lanes)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "decoded %q\n", meecc.StringFromBits(res.Received))
	fmt.Fprintf(w, "%.1f KBps aggregate, %d/%d bit errors (per lane: %v)\n",
		res.KBps, res.BitErrors, len(res.Sent), res.LaneErrors)
	return nil
}

// sendRaw runs the raw channel; verbose adds the per-bit probe trace.
func sendRaw(w io.Writer, cfg meecc.ChannelConfig, verbose bool) error {
	fmt.Fprintf(w, "transmitting %d bits (%d bytes) over the MEE cache covert channel...\n",
		len(cfg.Bits), len(cfg.Bits)/8)
	res, err := meecc.RunChannel(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsetup: eviction set of %d ways found in %.2f ms of machine time; spy threshold %d cycles\n",
		res.EvictionSetSize, float64(res.SetupCycles)/4e6, res.SpyThreshold)
	fmt.Fprintf(w, "channel: %.1f KBps, %d/%d bit errors (%.2f%%)\n",
		res.KBps, res.BitErrors, len(res.Sent), 100*res.ErrorRate)
	fmt.Fprintf(w, "decoded: %q\n", meecc.StringFromBits(res.Received))
	if !verbose {
		return nil
	}
	probes := make([]float64, len(res.ProbeTimes))
	for i, p := range res.ProbeTimes {
		probes[i] = float64(p)
	}
	fmt.Fprintf(w, "probe trace: %s\n", trace.Sparkline(probes))
	for i := range res.Sent {
		mark := ""
		if res.Received[i] != res.Sent[i] {
			mark = " <-- error"
		}
		fmt.Fprintf(w, "  bit %3d sent %d recv %d probe %4d%s\n",
			i, res.Sent[i], res.Received[i], res.ProbeTimes[i], mark)
	}
	return nil
}

// batchCmd runs a JSON-described grid end to end: spec → worker-pool fan-out →
// aggregated statistics → artifact + manifest under -out.
func batchCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	specPath := fs.String("spec", "", "JSON experiment spec (see examples/specs/)")
	outDir := fs.String("out", "results", "directory for the artifact and manifest")
	fs.IntVar(&e.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&e.Metrics, "metrics", false, "embed per-trial metrics snapshots in the artifact")
	return func() error {
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
		rep, err := e.RunGrid(spec)
		if err != nil {
			return err
		}
		artifact, manifest, err := exp.WriteArtifacts(*outDir, rep)
		if err != nil {
			return err
		}
		return printBatch(e.Stdout, spec, rep, artifact, manifest)
	}
}

// printBatch writes batch's summary, one row per cell with every aggregated
// metric's mean ± CI, and the artifact paths. A run in which every trial
// failed is an error.
func printBatch(w io.Writer, spec *exp.Spec, rep *exp.Report, artifact, manifest string) error {
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
	tb.Render(w)
	fmt.Fprintf(w, "\n%d cells × %d trials on %d workers in %s (%d failures)\n",
		len(rep.Cells), spec.Trials, rep.Workers, rep.WallTime.Round(1e6), rep.Failures())
	if rep.Partial {
		skipped := 0
		for _, tr := range rep.Trials {
			if tr.Err == exp.SkippedErr {
				skipped++
			}
		}
		fmt.Fprintf(w, "PARTIAL RUN: interrupted with %d trials never started (artifact flagged partial)\n", skipped)
	}
	fmt.Fprintf(w, "artifact: %s\nmanifest: %s\n", artifact, manifest)
	// Partial failures are data (recorded per trial in the artifact), but a
	// run where nothing succeeded should not look like success to scripts.
	if total := len(rep.Cells) * spec.Trials; rep.Failures() == total {
		return fmt.Errorf("all %d trials failed (first error recorded in %s)", total, artifact)
	}
	return nil
}

// chaosCmd sweeps the fault-injection campaign over (kind × intensity),
// comparing the static single-shot transfer against the adaptive resilient
// session in every cell, and writes artifact + manifest + CSV under -out.
func chaosCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	seed := fs.Uint64("seed", 42, "simulation seed")
	trials := fs.Int("trials", 1, "trials per grid cell")
	faults := fs.String("faults", "all", "fault kinds: all, none, or a comma list (migration,timer,paging,meeflush,storm)")
	intensities := fs.String("intensities", "0,1,2,4,8", "fault intensities (comma list)")
	payloadLen := fs.Int("payload", 16, "payload length in bytes")
	outDir := fs.String("out", "results", "directory for the artifact, manifest and CSV")
	fs.IntVar(&e.Workers, "workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	fs.BoolVar(&e.Metrics, "metrics", false, "embed per-trial metrics snapshots in the artifact")
	return func() error {
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
		rep, err := e.RunGrid(spec)
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
		tb.Render(e.Stdout)
		if rep.Partial {
			fmt.Fprintln(e.Stdout, "PARTIAL RUN: interrupted before every trial started (artifact flagged partial)")
		}
		fmt.Fprintf(e.Stdout, "artifact: %s\nmanifest: %s\ncsv: %s\n", artifact, manifest, csvPath)
		return nil
	}
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

// inspectCmd renders an observability file as a text report. It sniffs the
// payload: a metrics snapshot (from -metricsout or an artifact's obs block),
// a Chrome trace-event JSON (from -trace), or an experiment artifact (from
// batch/chaos), and exits non-zero on anything malformed.
func inspectCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	return func() error {
		if fs.NArg() != 1 {
			return usageError("usage: meecc inspect FILE (a -metricsout snapshot, a -trace JSON, or a batch artifact)")
		}
		return inspectFile(e.Stdout, fs.Arg(0))
	}
}

func inspectFile(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
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
			return fmt.Errorf("inspect: %s is not JSON: %v", path, err)
		}
		return inspectSchemaError(path, data)
	}
	switch {
	case kind.TraceEvents != nil:
		sum, err := obs.ValidateChromeTrace(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", path, err)
		}
		fmt.Fprintf(w, "%s: Chrome trace-event JSON (load in https://ui.perfetto.dev)\n", path)
		sum.Render(w)
		return nil

	case kind.Study != nil && kind.Cells != nil:
		art, err := exp.UnmarshalArtifact(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", path, err)
		}
		inspectArtifact(w, path, art)
		return nil

	case kind.SchemaVersion != nil || kind.Counters != nil:
		snap, err := obs.DecodeSnapshot(data)
		if err != nil {
			return fmt.Errorf("inspect: %s: %v", path, err)
		}
		fmt.Fprintf(w, "%s: metrics snapshot (schema v%d)\n\n", path, snap.SchemaVersion)
		snap.Render(w)
		return nil

	default:
		// Valid JSON, but none of the discriminating fields: say what this
		// command can render instead of surfacing a decoder's unmarshal
		// error about a schema the file never claimed to follow.
		return inspectSchemaError(path, data)
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
func inspectArtifact(w io.Writer, path string, art *exp.Artifact) {
	fmt.Fprintf(w, "%s: %s artifact %q (schema v%d)\n", path, art.Study, art.Name, art.SchemaVersion)
	fmt.Fprintf(w, "grid:    %d cells x %d trials, base seed %d\n", len(art.Cells), art.TrialsPerCell, art.BaseSeed)
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
	fmt.Fprintf(w, "trials:  %d recorded, %d failed\n", len(art.Trials), failures)
	if art.Partial {
		fmt.Fprintln(w, "partial: run was interrupted before every trial dispatched")
	}
	if observed == 0 {
		fmt.Fprintln(w, "metrics: none embedded (run with -metrics or \"metrics\": true in the spec)")
		return
	}
	fmt.Fprintf(w, "metrics: summed over %d trial snapshots\n\n", observed)
	total.Render(w)
}

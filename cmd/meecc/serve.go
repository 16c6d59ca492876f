package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"meecc/internal/exp"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

// runServe starts the experiment service on -addr and blocks until SIGINT/
// SIGTERM. Shutdown is graceful: admission stops, in-flight runs get -grace
// to finish, the journal checkpoints, and only then do the listeners close.
//
// Operational telemetry is always on: GET /metrics serves the Prometheus
// exposition, GET /healthz and /readyz report health, structured logs go to
// stderr (-loglevel, -logformat), and -debugaddr opens net/http/pprof on a
// separate listener so profiling never shares the service port.
func runServe() error {
	o := env().Observer()
	level, err := ops.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	form, err := ops.ParseFormat(*logFormat)
	if err != nil {
		return err
	}
	log := ops.NewLogger(os.Stderr, level, form)
	srv, err := serve.New(serve.Config{
		Workers:       *workers,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		JournalPath:   *journalPath,
		MaxConcurrent: *maxRuns,
		MaxPending:    *maxPending,
		RunTimeout:    *runTimeout,
		Obs:           o,
		Log:           log,
	})
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				log.Warn("pprof listener failed", "addr", *debugAddr, "err", err.Error())
			}
		}()
		log.Info("pprof listening", "addr", *debugAddr)
	}
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Bound every connection phase so one stuck peer can't pin the
		// listener: slow request reads, abandoned keep-alives. The write
		// timeout is generous because event streams legitimately stay open
		// for a whole run.
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	idle := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		signal.Stop(sigCh)
		fmt.Fprintf(os.Stderr, "\nmeecc serve: draining (grace %s)\n", *grace)
		// Drain the service first — it stops admission, waits out in-flight
		// runs, and checkpoints the journal; ending the run ends its event
		// streams, so the HTTP shutdown after it has little left to wait for.
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		srv.Shutdown(ctx)
		cancel()
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
		close(idle)
	}()
	fmt.Printf("meecc serve: listening on http://%s (store: %s, journal: %s)\n",
		*addr, storeDesc(), journalDesc())
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	<-idle
	return env().FinishObs(o)
}

func storeDesc() string {
	if *storeDir == "" {
		return "in-memory only"
	}
	return *storeDir
}

func journalDesc() string {
	if *journalPath == "" {
		return "none — runs die with the process"
	}
	return *journalPath
}

// runSubmit posts -spec to a running service, follows the run's NDJSON
// event stream, and writes the artifact under -out — the remote counterpart
// of `meecc batch`, producing byte-identical artifact files. It rides the
// serve.Client retry machinery: connection refusal and 429/503 pushback
// back off exponentially, severed event streams reconnect at the last seen
// offset, and a run interrupted by a server restart is resubmitted — the
// journal's memo makes the resumption re-execute only uncommitted trials.
func runSubmit() error {
	if *specPath == "" {
		return fmt.Errorf("submit requires -spec FILE (see examples/specs/)")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := exp.ParseSpec(data)
	if err != nil {
		return err
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &serve.Client{
		BaseURL: base,
		Backoff: serve.DefaultBackoff,
		Rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "meecc submit: "+format+"\n", args...)
		},
	}

	const maxResumes = 5
	for attempt := 0; ; attempt++ {
		info, err := client.Submit(data)
		if err != nil {
			return err
		}
		fmt.Printf("run %s (spec %s)\n", info.ID, info.SpecSHA256[:12])

		var sum runSummary
		last, err := client.Follow(info, 0, renderEvent(spec.Name, &sum))
		if err != nil {
			return err
		}
		switch last.Type {
		case "done":
			sum.print(os.Stderr)
		case "interrupted":
			if attempt >= maxResumes {
				return fmt.Errorf("run interrupted %d times; giving up", attempt+1)
			}
			fmt.Fprintln(os.Stderr, "meecc submit: server went down mid-run; resubmitting to resume from the journal")
			continue
		case "cancelled":
			fmt.Fprintf(os.Stderr, "meecc submit: run was cancelled; writing the partial artifact\n")
		default:
			return fmt.Errorf("run failed: %s", last.Error)
		}

		body, err := client.Artifact(info)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(*outDir, spec.Name+".json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			return err
		}
		fmt.Printf("artifact: %s\n", path)
		return nil
	}
}

// runSummary accumulates the wall-clock lifecycle marks the event stream
// carries (every event is stamped with a Unix-millisecond TS by the server)
// so submit can print queue wait and run duration without any client-side
// clock — the numbers are the server's own, robust to client reconnects.
type runSummary struct {
	queuedTS, startedTS, doneTS int64
	executed, memoized          int64
}

// print writes the final wall-clock summary line. Missing marks (a stream
// resumed past its queued event, a pre-telemetry server) degrade to "?".
func (s *runSummary) print(w *os.File) {
	wait, dur := "?", "?"
	if s.queuedTS > 0 && s.startedTS >= s.queuedTS {
		wait = (time.Duration(s.startedTS-s.queuedTS) * time.Millisecond).String()
	}
	if s.startedTS > 0 && s.doneTS >= s.startedTS {
		dur = (time.Duration(s.doneTS-s.startedTS) * time.Millisecond).String()
	}
	fmt.Fprintf(w, "summary: queue wait %s, run %s, trials: %d executed / %d memoized\n",
		wait, dur, s.executed, s.memoized)
}

// renderEvent turns the run's event stream into progress lines on stderr and
// captures the lifecycle timestamps for the final summary.
func renderEvent(name string, sum *runSummary) func(serve.Event) {
	return func(ev serve.Event) {
		switch ev.Type {
		case "queued":
			sum.queuedTS = ev.TS
		case "started":
			sum.startedTS = ev.TS
		case "progress":
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d trials, %d/%d cells   ",
				name, ev.Done, ev.Total, ev.CellsDone, ev.Cells)
		case "done":
			sum.doneTS = ev.TS
			sum.executed = ev.RunExecuted
			sum.memoized = ev.RunMemoized
			fmt.Fprintf(os.Stderr, "\r%s: done (%d failures; service totals: %d executed, %d memoized)\n",
				name, ev.Failures, ev.TrialsExecuted, ev.TrialsMemoized)
		case "error", "cancelled", "interrupted":
			fmt.Fprintln(os.Stderr)
		}
	}
}

// runHash prints the spec's content hash — the identity under which the
// serve service memoizes it and manifests record it.
func runHash() error {
	if *specPath == "" {
		return fmt.Errorf("hash requires -spec FILE")
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := exp.ParseSpec(data)
	if err != nil {
		return err
	}
	fmt.Println(spec.Hash())
	return nil
}

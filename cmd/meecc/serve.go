package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	"meecc/internal/figures"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

// defaultAddr is where serve listens and submit and top connect by default.
const defaultAddr = "127.0.0.1:8311"

// defaultStoreMax bounds the snapstore by default, so its LRU eviction
// eventually reclaims blobs that no warm key reaches any more.
const defaultStoreMax = 256 << 20

// serveCmd starts the experiment service on -addr and blocks until SIGINT/
// SIGTERM. Shutdown is graceful: admission stops, in-flight runs get -grace
// to finish, the journal checkpoints, and only then do the listeners close.
//
// Operational telemetry is always on: GET /metrics serves the Prometheus
// exposition, GET /healthz and /readyz report health, structured logs go to
// stderr (-loglevel, -logformat), and -debugaddr opens net/http/pprof on a
// separate listener so profiling never shares the service port.
func serveCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	addr := fs.String("addr", defaultAddr, "listen address")
	storeDir := fs.String("storedir", "", "snapstore directory for the warm-state disk tier (empty = in-memory only)")
	storeMax := fs.Int64("storemax", defaultStoreMax, "snapstore size bound in bytes, least recently used blobs evicted first (0 = unbounded)")
	journalPath := fs.String("journal", "", "write-ahead log; makes runs and trials durable across kill -9 (empty = no durability)")
	maxRuns := fs.Int("maxruns", 4, "max concurrently executing runs")
	maxPending := fs.Int("maxpending", 64, "max queued runs before submissions get 429")
	runTimeout := fs.Duration("runtimeout", 0, "per-run wall-clock deadline (0 = none)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight runs")
	readTimeout := fs.Duration("readtimeout", 30*time.Second, "HTTP read timeout per request")
	writeTimeout := fs.Duration("writetimeout", 10*time.Minute, "HTTP write timeout (bounds event-stream lifetime)")
	idleTimeout := fs.Duration("idletimeout", 2*time.Minute, "HTTP keep-alive idle timeout")
	logLevel := fs.String("loglevel", "info", "structured-log threshold (debug, info, warn, error)")
	logFormat := fs.String("logformat", "text", "structured-log encoding (text = logfmt, json)")
	debugAddr := fs.String("debugaddr", "", "open net/http/pprof on this extra address (empty = off)")
	fs.IntVar(&e.Workers, "workers", 0, "trial worker goroutines (0 = GOMAXPROCS)")
	return func() error {
		level, err := ops.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		form, err := ops.ParseFormat(*logFormat)
		if err != nil {
			return err
		}
		log := ops.NewLogger(e.Stderr, level, form)
		srv, err := serve.New(serve.Config{
			Workers:       e.Workers,
			StoreDir:      *storeDir,
			StoreMaxBytes: *storeMax,
			JournalPath:   *journalPath,
			MaxConcurrent: *maxRuns,
			MaxPending:    *maxPending,
			RunTimeout:    *runTimeout,
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
			fmt.Fprintf(e.Stderr, "\nmeecc serve: draining (grace %s)\n", *grace)
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
		store, journal := *storeDir, *journalPath
		if store == "" {
			store = "in-memory only"
		}
		if journal == "" {
			journal = "none — runs die with the process"
		}
		fmt.Fprintf(e.Stdout, "meecc serve: listening on http://%s (store: %s, journal: %s)\n", *addr, store, journal)
		if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
			return err
		}
		<-idle
		return nil
	}
}

// submitCmd posts -spec to a running service, follows the run's NDJSON event
// stream, and writes the artifact under -out — the remote counterpart of
// `meecc batch`, producing byte-identical artifact files. It rides the
// serve.Client retry machinery: connection refusal and 429/503 pushback
// back off exponentially, severed event streams reconnect at the last seen
// offset, and a run interrupted by a server restart is resubmitted — the
// journal's memo makes the resumption re-execute only uncommitted trials.
func submitCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	specPath := fs.String("spec", "", "JSON experiment spec (see examples/specs/)")
	addr := fs.String("addr", defaultAddr, "service address")
	outDir := fs.String("out", "results", "directory for the artifact")
	return func() error {
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
		client := &serve.Client{
			BaseURL: baseURL(*addr),
			Backoff: serve.DefaultBackoff,
			Rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
			Logf: func(format string, args ...any) {
				fmt.Fprintf(e.Stderr, "meecc submit: "+format+"\n", args...)
			},
		}

		const maxResumes = 5
		for attempt := 0; ; attempt++ {
			info, err := client.Submit(data)
			if err != nil {
				return err
			}
			fmt.Fprintf(e.Stdout, "run %s (spec %s)\n", info.ID, info.SpecSHA256[:12])

			var sum runSummary
			last, err := client.Follow(info, 0, renderEvent(e.Stderr, spec.Name, &sum))
			if err != nil {
				return err
			}
			switch last.Type {
			case "done":
				sum.print(e.Stderr)
			case "interrupted":
				if attempt >= maxResumes {
					return fmt.Errorf("run interrupted %d times; giving up", attempt+1)
				}
				fmt.Fprintln(e.Stderr, "meecc submit: server went down mid-run; resubmitting to resume from the journal")
				continue
			case "cancelled":
				fmt.Fprintf(e.Stderr, "meecc submit: run was cancelled; writing the partial artifact\n")
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
			fmt.Fprintf(e.Stdout, "artifact: %s\n", path)
			return nil
		}
	}
}

// baseURL turns a HOST:PORT address into a URL; an address that already
// names a scheme passes through.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return addr
	}
	return "http://" + addr
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
func (s *runSummary) print(w io.Writer) {
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

// renderEvent turns the run's event stream into progress lines on w and
// captures the lifecycle timestamps for the final summary.
func renderEvent(w io.Writer, name string, sum *runSummary) func(serve.Event) {
	return func(ev serve.Event) {
		switch ev.Type {
		case "queued":
			sum.queuedTS = ev.TS
		case "started":
			sum.startedTS = ev.TS
		case "progress":
			fmt.Fprintf(w, "\r%s: %d/%d trials, %d/%d cells   ",
				name, ev.Done, ev.Total, ev.CellsDone, ev.Cells)
		case "done":
			sum.doneTS = ev.TS
			sum.executed = ev.RunExecuted
			sum.memoized = ev.RunMemoized
			fmt.Fprintf(w, "\r%s: done (%d failures; service totals: %d executed, %d memoized)\n",
				name, ev.Failures, ev.TrialsExecuted, ev.TrialsMemoized)
		case "error", "cancelled", "interrupted":
			fmt.Fprintln(w)
		}
	}
}

// hashCmd prints the spec's content hash — the identity under which the
// serve service memoizes it and manifests record it.
func hashCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	specPath := fs.String("spec", "", "JSON experiment spec")
	return func() error {
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
		fmt.Fprintln(e.Stdout, spec.Hash())
		return nil
	}
}

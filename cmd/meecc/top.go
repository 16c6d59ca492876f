package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"meecc/internal/figures"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

// topCmd polls a running service's GET /metrics and GET /healthz and renders
// a live terminal dashboard: runs in flight, queue depth, trial throughput,
// memo hit rate, latency quantiles, journal and store sizes. It shares the
// exposition parser with the serve tests, so anything it renders is by
// construction parseable telemetry.
//
// With -once it prints a single snapshot and exits; add -require FAM1,FAM2
// to assert metric families are present (the CI smoke's scrape check).
func topCmd(fs *flag.FlagSet, e *figures.Env) func() error {
	addr := fs.String("addr", defaultAddr, "service address")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	require := fs.String("require", "", "comma list of metric families that must be present (exit nonzero otherwise)")
	return func() error {
		base := baseURL(*addr)
		client := &http.Client{Timeout: 10 * time.Second}

		var required []string
		if *require != "" {
			for _, f := range strings.Split(*require, ",") {
				if f = strings.TrimSpace(f); f != "" {
					required = append(required, f)
				}
			}
		}

		poll := func() (*ops.Scrape, *serve.Health, error) {
			sc, err := scrapeMetrics(client, base)
			if err != nil {
				return nil, nil, err
			}
			h, err := scrapeHealth(client, base)
			if err != nil {
				return nil, nil, err
			}
			return sc, h, nil
		}

		if *once {
			sc, h, err := poll()
			if err != nil {
				return err
			}
			if err := requireFamilies(sc, required); err != nil {
				return err
			}
			renderDashboard(e.Stdout, base, sc, h, topDeltas{})
			if len(required) > 0 {
				fmt.Fprintf(e.Stdout, "require: all %d families present\n", len(required))
			}
			return nil
		}

		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()

		var prev topDeltas
		for {
			sc, h, err := poll()
			if err != nil {
				fmt.Fprintf(e.Stderr, "meecc top: %v (retrying in %s)\n", err, *interval)
			} else {
				if err := requireFamilies(sc, required); err != nil {
					return err
				}
				fmt.Fprint(e.Stdout, "\x1b[H\x1b[2J") // home + clear: repaint in place
				prev = renderDashboard(e.Stdout, base, sc, h, prev)
			}
			select {
			case <-sigCh:
				fmt.Fprintln(e.Stdout)
				return nil
			case <-ticker.C:
			}
		}
	}
}

// scrapeMetrics fetches and parses one exposition.
func scrapeMetrics(client *http.Client, base string) (*ops.Scrape, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return ops.ParseText(resp.Body)
}

// scrapeHealth fetches GET /healthz; a failure here is reported in-band (the
// dashboard shows the service as unreachable) rather than fatal.
func scrapeHealth(client *http.Client, base string) (*serve.Health, error) {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("GET /healthz: %w", err)
	}
	return &h, nil
}

// requireFamilies asserts every named family appears in the scrape.
func requireFamilies(sc *ops.Scrape, required []string) error {
	var missing []string
	for _, f := range required {
		if !sc.Has(f) {
			missing = append(missing, f)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metric families missing from /metrics: %s", strings.Join(missing, ", "))
	}
	return nil
}

// topDeltas carries the previous poll's cumulative counters so the next
// render can turn them into rates.
type topDeltas struct {
	at       time.Time
	executed float64
	memoized float64
	requests float64
}

// renderDashboard writes one dashboard frame and returns the counters the
// next frame needs for rate computation.
func renderDashboard(w io.Writer, base string, sc *ops.Scrape, h *serve.Health, prev topDeltas) topDeltas {
	now := time.Now()
	executed := sc.Value("meecc_serve_trials_executed_total")
	memoized := sc.Value("meecc_serve_trials_memoized_total")
	requests := sc.Value("meecc_http_requests_total")

	status := h.Status
	if len(h.Degraded) > 0 {
		status += " (" + strings.Join(h.Degraded, ", ") + ")"
	}
	fmt.Fprintf(w, "meecc top — %s — %s — uptime %s — %s\n",
		base, status, fmtSeconds(h.UptimeSeconds), now.Format("15:04:05"))

	fmt.Fprintf(w, "  runs     active %.0f   queued %.0f   submitted %.0f   done %.0f   failed %.0f   cancelled %.0f   interrupted %.0f   rejected %.0f\n",
		sc.Value("meecc_serve_runs_active"),
		sc.Value("meecc_serve_queue_depth"),
		sc.Value("meecc_serve_runs_submitted_total"),
		labeledValue(sc, "meecc_serve_runs_finished_total", "outcome", "done"),
		labeledValue(sc, "meecc_serve_runs_finished_total", "outcome", "failed"),
		labeledValue(sc, "meecc_serve_runs_finished_total", "outcome", "cancelled"),
		labeledValue(sc, "meecc_serve_runs_finished_total", "outcome", "interrupted"),
		sc.Value("meecc_serve_runs_rejected_total"))

	hit := 0.0
	if total := executed + memoized; total > 0 {
		hit = 100 * memoized / total
	}
	fmt.Fprintf(w, "  trials   executed %.0f (%s)   memoized %.0f   memo hit %.1f%%   memo entries %.0f   inflight %.0f\n",
		executed, fmtRate(executed-prev.executed, now.Sub(prev.at)),
		memoized, hit,
		sc.Value("meecc_serve_memo_entries"),
		sc.Value("meecc_exp_trials_inflight"))

	fmt.Fprintf(w, "  latency  trial p50 %s  p95 %s  p99 %s   queue wait p95 %s   run p95 %s\n",
		fmtSeconds(sc.Quantile("meecc_serve_trial_seconds", 0.50)),
		fmtSeconds(sc.Quantile("meecc_serve_trial_seconds", 0.95)),
		fmtSeconds(sc.Quantile("meecc_serve_trial_seconds", 0.99)),
		fmtSeconds(sc.Quantile("meecc_serve_queue_wait_seconds", 0.95)),
		fmtSeconds(sc.Quantile("meecc_serve_run_seconds", 0.95)))

	fmt.Fprintf(w, "  journal  size %s   appends %.0f   errors %.0f   replayed %.0f   torn-tail recoveries %.0f   fsync p95 %s\n",
		fmtBytes(sc.Value("meecc_journal_size_bytes")),
		sc.Value("meecc_journal_appends_total"),
		sc.Value("meecc_journal_append_errors_total"),
		sc.Value("meecc_journal_replayed_records_total"),
		sc.Value("meecc_journal_torn_tail_recoveries_total"),
		fmtSeconds(sc.Quantile("meecc_journal_fsync_seconds", 0.95)))

	fmt.Fprintf(w, "  store    %s in %.0f blobs   puts %.0f   gets %.0f (%.0f misses)   self-heals %.0f   evictions %.0f\n",
		fmtBytes(sc.Value("meecc_snapstore_bytes")),
		sc.Value("meecc_snapstore_blobs"),
		sc.Value("meecc_snapstore_puts_total"),
		sc.Value("meecc_snapstore_gets_total"),
		sc.Value("meecc_snapstore_get_misses_total"),
		sc.Value("meecc_snapstore_selfheal_deletions_total"),
		sc.Value("meecc_snapstore_evictions_total"))

	fmt.Fprintf(w, "  streams  active %.0f   total %.0f   resumes %.0f   http %.0f reqs (%s)   req p95 %s\n",
		sc.Value("meecc_serve_event_streams_active"),
		sc.Value("meecc_serve_event_streams_total"),
		sc.Value("meecc_serve_event_stream_resumes_total"),
		requests, fmtRate(requests-prev.requests, now.Sub(prev.at)),
		fmtSeconds(sc.Quantile("meecc_http_request_seconds", 0.95)))

	fmt.Fprintf(w, "  process  goroutines %.0f   heap %s   workers %.0f   worker busy %s\n",
		sc.Value("meecc_process_goroutines"),
		fmtBytes(sc.Value("meecc_process_heap_bytes")),
		sc.Value("meecc_exp_workers"),
		fmtSeconds(sc.Value("meecc_exp_worker_busy_seconds")))

	return topDeltas{at: now, executed: executed, memoized: memoized, requests: requests}
}

// labeledValue sums the series of name whose label key has the given value.
func labeledValue(sc *ops.Scrape, name, key, value string) float64 {
	var total float64
	for _, s := range sc.Samples[name] {
		if s.Labels[key] == value {
			total += s.Value
		}
	}
	return total
}

// fmtRate renders a counter delta as an events/second rate; the first frame
// has no baseline and renders as a dash.
func fmtRate(delta float64, elapsed time.Duration) string {
	if elapsed <= 0 || elapsed > time.Hour || delta < 0 {
		return "–/s"
	}
	return fmt.Sprintf("%.1f/s", delta/elapsed.Seconds())
}

// fmtSeconds renders a duration in seconds with a human unit.
func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.1fs", s)
	default:
		return time.Duration(s * float64(time.Second)).Round(time.Second).String()
	}
}

// fmtBytes renders a byte count with a binary unit.
func fmtBytes(b float64) string {
	units := []string{"B", "KiB", "MiB", "GiB", "TiB"}
	i := 0
	for b >= 1024 && i < len(units)-1 {
		b /= 1024
		i++
	}
	if i == 0 {
		return fmt.Sprintf("%.0f B", b)
	}
	return fmt.Sprintf("%.1f %s", b, units[i])
}

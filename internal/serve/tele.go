package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"meecc/internal/obs/ops"
)

// serveInstruments holds the hot-path instrument handles, resolved once at
// New so that admission, run and trial paths never touch the registry's
// lookup mutex. The per-route handles live in handle's closures. One path
// still looks a series up per event: an HTTP response whose code is not
// its route's success code (an error, or cancel's 202 for a running run).
// Stats reads its counts from these handles too.
type serveInstruments struct {
	runsSubmitted    *ops.Counter
	rejectedOverload *ops.Counter
	rejectedDraining *ops.Counter
	runsFinished     map[string]*ops.Counter // by outcome
	runsActive       *ops.Gauge
	runSeconds       *ops.Histogram
	queueWait        *ops.Histogram
	trialsExecuted   *ops.Counter
	trialsMemoized   *ops.Counter
	trialSeconds     *ops.Histogram
	streamsActive    *ops.Gauge
	streamsTotal     *ops.Counter
	streamResumes    *ops.Counter
	journalErrors    *ops.Counter // shared handle with journal.SetOps
	journalReplayed  *ops.Counter // shared handle with journal.SetOps
	storeSelfHeals   *ops.Counter // shared handle with snapstore.SetOps
}

// discardHandler is the slog.Handler of a server without Config.Log: it is
// enabled at no level, so no log record is built.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// registerOps creates every metric family the service exposes, whether or
// not the component behind it is configured — the /metrics contract is that
// the admission, queue, trial, memo, journal, and store families are always
// present, so dashboards and the CI scrape never special-case deployment
// shape. Components that ARE configured (journal, snapstore, warm cache,
// exp dispatcher) fetch these same handles through the shared registry.
func (s *Server) registerOps() {
	reg := s.ops

	// Admission and run lifecycle.
	s.inst.runsSubmitted = reg.Counter("meecc_serve_runs_submitted_total", "Runs admitted by POST /v1/runs.")
	s.inst.rejectedOverload = reg.Counter("meecc_serve_runs_rejected_total", "Run submissions rejected.", "reason", "overload")
	s.inst.rejectedDraining = reg.Counter("meecc_serve_runs_rejected_total", "Run submissions rejected.", "reason", "draining")
	s.inst.runsFinished = map[string]*ops.Counter{}
	for _, outcome := range []string{"done", "failed", "cancelled", "interrupted"} {
		s.inst.runsFinished[outcome] = reg.Counter("meecc_serve_runs_finished_total", "Runs reaching a terminal state.", "outcome", outcome)
	}
	s.inst.runsActive = reg.Gauge("meecc_serve_runs_active", "Runs executing right now.")
	reg.GaugeFunc("meecc_serve_queue_depth", "Admitted runs waiting for a run slot.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.pending)
	})
	s.inst.runSeconds = reg.Histogram("meecc_serve_run_seconds", "Wall time from run start to terminal state.", nil)
	s.inst.queueWait = reg.Histogram("meecc_serve_queue_wait_seconds", "Wall time runs spent queued before starting.", nil)

	// Trials and the memo table.
	s.inst.trialsExecuted = reg.Counter("meecc_serve_trials_executed_total", "Trials freshly executed by the service.")
	s.inst.trialsMemoized = reg.Counter("meecc_serve_trials_memoized_total", "Trials replayed from the memo table.")
	s.inst.trialSeconds = reg.Histogram("meecc_serve_trial_seconds", "Wall time of freshly executed trials.", nil)
	reg.GaugeFunc("meecc_serve_memo_entries", "Trial results held in the memo table.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.memo))
	})

	// Event-stream fan-out.
	s.inst.streamsActive = reg.Gauge("meecc_serve_event_streams_active", "NDJSON event streams currently connected.")
	s.inst.streamsTotal = reg.Counter("meecc_serve_event_streams_total", "NDJSON event streams ever opened.")
	s.inst.streamResumes = reg.Counter("meecc_serve_event_stream_resumes_total", "Event streams opened with a nonzero ?from= resume offset.")

	// Journal and snapstore families exist even with neither configured;
	// journal.SetOps / snapstore.SetOps fetch these same series when the
	// component is live. The two error counters also drive /healthz.
	reg.Counter("meecc_journal_appends_total", "Records appended to the write-ahead journal.")
	s.inst.journalErrors = reg.Counter("meecc_journal_append_errors_total", "Journal appends that failed.")
	reg.Histogram("meecc_journal_append_seconds", "Wall time of journal record appends.", nil)
	reg.Histogram("meecc_journal_fsync_seconds", "Wall time of journal fsyncs.", nil)
	s.inst.journalReplayed = reg.Counter("meecc_journal_replayed_records_total", "Intact records replayed at journal open.")
	reg.Counter("meecc_journal_torn_tail_recoveries_total", "Torn tails truncated at journal open.")
	reg.Gauge("meecc_journal_size_bytes", "Current journal file size.")
	reg.Counter("meecc_snapstore_puts_total", "Blobs written to the snapshot store.")
	reg.Counter("meecc_snapstore_put_bytes_total", "Bytes written to the snapshot store.")
	reg.Counter("meecc_snapstore_gets_total", "Blob loads attempted from the snapshot store.")
	reg.Counter("meecc_snapstore_get_misses_total", "Blob loads that found no stored blob.")
	s.inst.storeSelfHeals = reg.Counter("meecc_snapstore_selfheal_deletions_total", "Corrupt blobs deleted by Get self-healing.")
	reg.Counter("meecc_snapstore_evictions_total", "Blobs evicted to stay under the size bound.")
	reg.Counter("meecc_snapstore_eviction_bytes_total", "Bytes reclaimed by LRU eviction.")
	reg.Histogram("meecc_snapstore_put_seconds", "Wall time of snapshot store writes.", nil)
	reg.Histogram("meecc_snapstore_get_seconds", "Wall time of snapshot store loads.", nil)
	reg.Gauge("meecc_snapstore_bytes", "Total bytes currently stored.")
	reg.Gauge("meecc_snapstore_blobs", "Blobs currently stored.")

	// Dispatcher families (exp.Run fetches the same handles per run).
	reg.Histogram("meecc_exp_queue_wait_seconds", "Wall time a dispatched trial waited for a worker.", nil)
	reg.Histogram("meecc_exp_trial_seconds", "Wall time of trial executions in the worker pool.", nil)
	reg.Gauge("meecc_exp_worker_busy_seconds", "Cumulative wall time workers spent executing trials.")
	reg.Gauge("meecc_exp_workers", "Workers currently serving trial pools.")
	reg.Gauge("meecc_exp_trials_inflight", "Trials executing right now.")

	// Process vitals.
	reg.GaugeFunc("meecc_process_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	reg.GaugeFunc("meecc_process_goroutines", "Live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	reg.GaugeFunc("meecc_process_heap_bytes", "Heap bytes in use.", func() float64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	})
}

// statusWriter captures the response code for per-request metrics while
// forwarding Flush — the NDJSON event stream depends on flushing through.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handle registers a route with request counting and latency recording under
// an explicit handler name (Go 1.22's mux does not expose the matched
// pattern to the handler, so each registration names itself). ok is the
// route's success code. Its series is resolved here, once, so the family is
// present on the very first scrape and a successful request counts itself
// without a registry lookup; a response with any other code looks its
// series up.
func (s *Server) handle(pattern, name string, ok int, h http.HandlerFunc) {
	seconds := s.ops.Histogram("meecc_http_request_seconds", "Wall time of HTTP requests.", nil, "handler", name)
	okRequests := s.ops.Counter("meecc_http_requests_total", "HTTP requests served.", "handler", name, "code", strconv.Itoa(ok))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		seconds.ObserveSince(start)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		if sw.code == ok {
			okRequests.Inc()
			return
		}
		s.ops.Counter("meecc_http_requests_total", "HTTP requests served.",
			"handler", name, "code", strconv.Itoa(sw.code)).Inc()
	})
}

// acquireSlot leases the lowest free trial span track.
func (s *Server) acquireSlot() int {
	s.slotMu.Lock()
	defer s.slotMu.Unlock()
	if n := len(s.slotFree); n > 0 {
		id := s.slotFree[n-1]
		s.slotFree = s.slotFree[:n-1]
		return id
	}
	s.slotNext++
	return s.slotNext - 1
}

func (s *Server) releaseSlot(id int) {
	s.slotMu.Lock()
	s.slotFree = append(s.slotFree, id)
	s.slotMu.Unlock()
}

// Health is the GET /healthz response body.
type Health struct {
	Status        string   `json:"status"` // "ok" or "degraded"
	Degraded      []string `json:"degraded,omitempty"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

// handleHealthz reports liveness plus a degraded flag: the service keeps
// serving through journal append failures (durability degraded) and store
// blob corruption (self-healed), but operators need to see both.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", UptimeSeconds: time.Since(s.started).Seconds()}
	if s.inst.journalErrors.Value() > 0 {
		h.Degraded = append(h.Degraded, "journal_append_errors")
	}
	if s.inst.storeSelfHeals.Value() > 0 {
		h.Degraded = append(h.Degraded, "snapstore_selfheal_deletions")
	}
	if len(h.Degraded) > 0 {
		h.Status = "degraded"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleReadyz reports readiness to accept submissions: 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": "draining"})
		return
	}
	json.NewEncoder(w).Encode(map[string]any{"ready": true})
}

// handleTrace exports the run's wall-clock lifecycle spans (queue, execute,
// per-trial slots, artifact) as Chrome trace-event JSON — load it in
// Perfetto, or validate it with `meecc inspect`, exactly like the sim-clock
// traces from -trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	spans := s.spans.Spans(ru.id)
	if len(spans) == 0 {
		httpError(w, http.StatusNotFound, "no spans recorded for run %s (ring may have wrapped)", ru.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := ops.WriteChromeTrace(w, spans); err != nil {
		httpError(w, http.StatusInternalServerError, "encoding trace: %v", err)
	}
}

// spanName labels one trial span: "trial cellkey/3" or "memo cellkey/3".
func spanName(kind, cellKey string, trial int) string {
	return fmt.Sprintf("%s %s/%d", kind, cellKey, trial)
}

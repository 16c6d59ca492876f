package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"meecc/internal/obs"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

// requiredFamilies is the /metrics contract: these families are present on
// every scrape of every server, whatever components are configured — the
// same list ci.sh asserts through `meecc top -once -require`.
var requiredFamilies = []string{
	"meecc_serve_runs_submitted_total",
	"meecc_serve_runs_rejected_total",
	"meecc_serve_runs_finished_total",
	"meecc_serve_runs_active",
	"meecc_serve_queue_depth",
	"meecc_serve_run_seconds",
	"meecc_serve_queue_wait_seconds",
	"meecc_serve_trials_executed_total",
	"meecc_serve_trials_memoized_total",
	"meecc_serve_trial_seconds",
	"meecc_serve_memo_entries",
	"meecc_serve_event_streams_active",
	"meecc_serve_event_streams_total",
	"meecc_serve_event_stream_resumes_total",
	"meecc_journal_appends_total",
	"meecc_journal_append_errors_total",
	"meecc_journal_size_bytes",
	"meecc_snapstore_puts_total",
	"meecc_snapstore_gets_total",
	"meecc_snapstore_selfheal_deletions_total",
	"meecc_snapstore_bytes",
	"meecc_exp_queue_wait_seconds",
	"meecc_exp_trial_seconds",
	"meecc_http_requests_total",
	"meecc_http_request_seconds",
	"meecc_process_uptime_seconds",
	"meecc_process_goroutines",
	"meecc_process_heap_bytes",
}

// scrape fetches and parses GET /metrics.
func scrape(t *testing.T, base string) *ops.Scrape {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ops.TextContentType {
		t.Fatalf("content type %q, want %q", ct, ops.TextContentType)
	}
	sc, err := ops.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing exposition: %v", err)
	}
	return sc
}

// requireStatsMatchScrape checks that Stats reads the /metrics series of
// the same events: the server keeps no second count of them.
func requireStatsMatchScrape(t *testing.T, srv *serve.Server, sc *ops.Scrape) {
	t.Helper()
	st := srv.Stats()
	var overload float64
	for _, s := range sc.Samples["meecc_serve_runs_rejected_total"] {
		if s.Labels["reason"] == "overload" {
			overload += s.Value
		}
	}
	for _, c := range []struct {
		series string
		stat   int64
		scrape float64
	}{
		{"meecc_serve_runs_submitted_total", st.RunsSubmitted, sc.Value("meecc_serve_runs_submitted_total")},
		{"meecc_serve_trials_executed_total", st.TrialsExecuted, sc.Value("meecc_serve_trials_executed_total")},
		{"meecc_serve_trials_memoized_total", st.TrialsMemoized, sc.Value("meecc_serve_trials_memoized_total")},
		{`meecc_serve_runs_rejected_total{reason="overload"}`, st.RejectedOverload, overload},
		{"meecc_journal_append_errors_total", st.JournalErrors, sc.Value("meecc_journal_append_errors_total")},
		{"meecc_journal_replayed_records_total", st.JournalReplayed, sc.Value("meecc_journal_replayed_records_total")},
	} {
		if float64(c.stat) != c.scrape {
			t.Errorf("Stats reads %d for %s, the scrape %v", c.stat, c.series, c.scrape)
		}
	}
}

// getHealth fetches and decodes GET /healthz.
func getHealth(t *testing.T, base string) serve.Health {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h serve.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMetricsExpositionCoversEveryLayer runs a synthetic grid to completion
// and asserts (a) every contractual family is present and parseable, and
// (b) the admission/trial/memo counters reflect the run: a resubmitted spec
// shows up entirely in the memoized counter.
func TestMetricsExpositionCoversEveryLayer(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Workers:       2,
		StoreDir:      t.TempDir(),
		JournalPath:   t.TempDir() + "/serve.wal",
		RunnerFactory: syntheticFactory,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Before any run: every family already present (the dashboards-never-
	// special-case contract), all counters zero.
	sc := scrape(t, ts.URL)
	for _, fam := range requiredFamilies {
		if !sc.Has(fam) {
			t.Errorf("family %s missing from pre-run scrape", fam)
		}
	}
	if v := sc.Value("meecc_serve_runs_submitted_total"); v != 0 {
		t.Fatalf("pre-run runs_submitted = %v", v)
	}

	submitAndWait(t, ts.URL, synSpec)
	submitAndWait(t, ts.URL, synSpec) // fully memoized replay

	sc = scrape(t, ts.URL)
	if v := sc.Value("meecc_serve_runs_submitted_total"); v != 2 {
		t.Errorf("runs_submitted = %v, want 2", v)
	}
	if v := sc.Value("meecc_serve_trials_executed_total"); v != 4 {
		t.Errorf("trials_executed = %v, want 4", v)
	}
	if v := sc.Value("meecc_serve_trials_memoized_total"); v != 4 {
		t.Errorf("trials_memoized = %v, want 4", v)
	}
	if v := sc.Value("meecc_serve_trial_seconds_count"); v != 4 {
		t.Errorf("trial_seconds count = %v, want 4", v)
	}
	if v := sc.Value("meecc_journal_appends_total"); v < 5 {
		t.Errorf("journal appends = %v, want >= 5 (2 runs + 4 trials ...)", v)
	}
	// The run outcome counter is labeled; both runs finished done.
	var done float64
	for _, s := range sc.Samples["meecc_serve_runs_finished_total"] {
		if s.Labels["outcome"] == "done" {
			done += s.Value
		}
	}
	if done != 2 {
		t.Errorf("runs_finished{outcome=done} = %v, want 2", done)
	}
	if v := sc.Value("meecc_serve_event_streams_total"); v != 2 {
		t.Errorf("event_streams_total = %v, want 2", v)
	}
	requireStatsMatchScrape(t, srv, sc)
}

// TestStructuredLogsFollowEachRun sets a JSON slog handler on Config.Log:
// New logs the journal's replay, and each run logs one admitted, one
// started and one finished line carrying its id, the finished line with
// the run's own executed/memoized split.
func TestStructuredLogsFollowEachRun(t *testing.T) {
	var buf bytes.Buffer
	srv, err := serve.New(serve.Config{
		Workers:       1,
		JournalPath:   filepath.Join(t.TempDir(), "serve.wal"),
		RunnerFactory: syntheticFactory,
		Log:           slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	first, _ := submitAndWait(t, ts.URL, synSpec)
	second, _ := submitAndWait(t, ts.URL, synSpec) // fully memoized
	ts.Close()
	srv.Close() // every line is written once both have returned

	lines := map[string]map[string][]map[string]any{} // msg → run → lines
	replayed := 0
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		if rec["time"] == nil || rec["level"] == nil {
			t.Errorf("log line %q lacks slog's time or level", line)
		}
		msg, _ := rec["msg"].(string)
		if msg == "journal replayed" {
			replayed++
		}
		if run, ok := rec["run"].(string); ok {
			if lines[msg] == nil {
				lines[msg] = map[string][]map[string]any{}
			}
			lines[msg][run] = append(lines[msg][run], rec)
		}
	}
	if replayed != 1 {
		t.Errorf("%d journal replayed lines, want 1", replayed)
	}
	for _, msg := range []string{"run admitted", "run started", "run finished"} {
		for _, id := range []string{first["id"].(string), second["id"].(string)} {
			if n := len(lines[msg][id]); n != 1 {
				t.Errorf("%d %q lines for run %s, want 1", n, msg, id)
			}
		}
		if len(lines[msg]) != 2 {
			t.Errorf("%q lines name %d runs, want 2", msg, len(lines[msg]))
		}
	}
	for id, want := range map[string][2]float64{first["id"].(string): {4, 0}, second["id"].(string): {0, 4}} {
		for _, rec := range lines["run finished"][id] {
			if rec["executed"] != want[0] || rec["memoized"] != want[1] {
				t.Errorf("run %s finished with executed=%v memoized=%v, want %v and %v",
					id, rec["executed"], rec["memoized"], want[0], want[1])
			}
		}
	}
}

// TestHealthzDegradedFlags proves /healthz flips to degraded on the two
// survivable failure modes. The test injects through the shared registry —
// the same series journal.SetOps and snapstore.SetOps bump — so it pins the
// wiring (shared counter handles) rather than re-testing the components.
func TestHealthzDegradedFlags(t *testing.T) {
	reg := ops.NewRegistry()
	srv, err := serve.New(serve.Config{Workers: 1, RunnerFactory: syntheticFactory, Ops: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if h := getHealth(t, ts.URL); h.Status != "ok" || len(h.Degraded) != 0 {
		t.Fatalf("fresh server health = %+v, want ok", h)
	}

	reg.Counter("meecc_journal_append_errors_total", "").Inc()
	h := getHealth(t, ts.URL)
	if h.Status != "degraded" || len(h.Degraded) != 1 || h.Degraded[0] != "journal_append_errors" {
		t.Fatalf("health after journal error = %+v, want degraded [journal_append_errors]", h)
	}

	reg.Counter("meecc_snapstore_selfheal_deletions_total", "").Inc()
	h = getHealth(t, ts.URL)
	if h.Status != "degraded" || len(h.Degraded) != 2 {
		t.Fatalf("health after self-heal = %+v, want both degraded flags", h)
	}
}

// TestReadyzFlipsWhileDraining: ready before shutdown, 503 after.
func TestReadyzFlipsWhileDraining(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh /readyz = %s, want 200", resp.Status)
	}

	srv.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %s (%s), want 503", resp.Status, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("draining /readyz body %q, want draining reason", body)
	}
}

// TestRunTraceEndpoint exports a finished run's wall-clock spans and checks
// they pass the same Chrome-trace validation the sim-clock traces use, with
// one slice per lifecycle phase and trial.
func TestRunTraceEndpoint(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 2, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, _ := submitAndWait(t, ts.URL, synSpec)
	resp, err := http.Get(ts.URL + "/v1/runs/" + info["id"].(string) + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s: %s", resp.Status, data)
	}
	sum, err := obs.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("trace failed validation: %v", err)
	}
	// submit + queued + execute + artifact + 4 trials = 8 slices.
	if sum.Slices != 8 {
		t.Errorf("trace has %d slices, want 8", sum.Slices)
	}

	// Unknown runs 404.
	resp404, err := http.Get(ts.URL + "/v1/runs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp404.Body)
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown run = %s, want 404", resp404.Status)
	}
}

// traceAtFinish is a slog.Handler that, when the server logs "run
// finished", reads that run's trace from the server and keeps the names of
// its slices: what a client that fetches the trace as soon as it sees the
// terminal event would find.
type traceAtFinish struct {
	srv   http.Handler
	names chan []string
}

func (h *traceAtFinish) Enabled(context.Context, slog.Level) bool { return true }
func (h *traceAtFinish) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *traceAtFinish) WithGroup(string) slog.Handler            { return h }

func (h *traceAtFinish) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "run finished" {
		return nil
	}
	var id string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "run" {
			id = a.Value.String()
		}
		return true
	})
	rec := httptest.NewRecorder()
	h.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/trace", nil))
	var trace struct {
		TraceEvents []struct{ Ph, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		return fmt.Errorf("trace of run %s at finish: %s: %w", id, rec.Body.Bytes(), err)
	}
	var names []string
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	h.names <- names
	return nil
}

// TestTraceCompleteWhenRunFinishes: a run's "execute" span, and every other
// span, is recorded before its terminal event is published, so the trace
// read when the server logs "run finished" (after the done event) already
// holds all 8 slices of TestRunTraceEndpoint.
func TestTraceCompleteWhenRunFinishes(t *testing.T) {
	h := &traceAtFinish{names: make(chan []string, 1)}
	srv, err := serve.New(serve.Config{Workers: 1, RunnerFactory: syntheticFactory, Log: slog.New(h)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h.srv = srv
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submitAndWait(t, ts.URL, synSpec)
	names := <-h.names
	if !slices.Contains(names, "execute") || len(names) != 8 {
		t.Errorf("trace at run finished has slices %q, want 8 with execute", names)
	}
}

// TestEventStreamCarriesWallClockMarks: every event is TS-stamped and the
// terminal done event reports the per-run executed/memoized split — what
// `meecc submit` turns into its summary line.
func TestEventStreamCarriesWallClockMarks(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	_, events := submitAndWait(t, ts.URL, synSpec)
	for i, ev := range events {
		if tsv, _ := ev["ts"].(float64); tsv <= 0 {
			t.Errorf("event %d (%v) has no wall-clock ts", i, ev["type"])
		}
	}
	last := events[len(events)-1]
	if last["type"] != "done" {
		t.Fatalf("terminal event %v", last)
	}
	if v, _ := last["run_executed"].(float64); v != 4 {
		t.Errorf("done.run_executed = %v, want 4", last["run_executed"])
	}
	if _, ok := last["run_memoized"]; ok {
		// zero is omitted by omitempty; present means nonzero, which would
		// be wrong for a fresh single-run server.
		t.Errorf("done.run_memoized present on fresh run: %v", last["run_memoized"])
	}
}

// BenchmarkInstrumentedSubmit pushes a synthetic run through the fully
// instrumented submit → dispatch → execute → done path over real HTTP —
// the end-to-end cost of a served run with telemetry always-on.
func BenchmarkInstrumentedSubmit(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 2, RunnerFactory: syntheticFactory})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh seed per iteration defeats the memo: every trial executes.
		spec := fmt.Sprintf(`{"name":"bench","study":"synthetic","base_seed":%d,"trials":2,
			"axes":[{"name":"w","values":["1","2"]}]}`, i+1)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		var info map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		ev, err := http.Get(ts.URL + info["events"].(string))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, ev.Body) // the stream ends at the terminal event
		ev.Body.Close()
	}
}

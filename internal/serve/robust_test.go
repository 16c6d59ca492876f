package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/serve"
)

// blockingFactory builds a runner that announces each trial on started and
// then parks until release closes — the tool for freezing a run mid-flight.
func blockingFactory(started chan<- string, release <-chan struct{}) func(string, *core.WarmCache) (exp.Runner, error) {
	return func(study string, warm *core.WarmCache) (exp.Runner, error) {
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			started <- j.Spec.Name
			<-release
			return exp.Metrics{"v": float64(j.Seed % 100)}, nil, nil
		}, nil
	}
}

func oneTrialSpec(name string) string {
	return fmt.Sprintf(`{"name":%q,"study":"synthetic","base_seed":1,"trials":1}`, name)
}

func postSpec(t *testing.T, base, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdmissionControlRejectsWhenSaturated: with one run slot occupied and
// the one-deep pending queue full, the next submission bounces with 429 and
// a Retry-After hint instead of queueing unboundedly.
func TestAdmissionControlRejectsWhenSaturated(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	srv, err := serve.New(serve.Config{
		Workers:       1,
		MaxConcurrent: 1,
		MaxPending:    1,
		RunnerFactory: blockingFactory(started, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release) // unblock before Close drains
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSpec(t, ts.URL, oneTrialSpec("a"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run a: %s", resp.Status)
	}
	<-started // a holds the only run slot; the queue is empty again

	resp = postSpec(t, ts.URL, oneTrialSpec("b"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("run b: %s", resp.Status)
	}

	resp = postSpec(t, ts.URL, oneTrialSpec("c"))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("run c at saturation: %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 carried no Retry-After hint")
	}
	if st := srv.Stats(); st.RejectedOverload != 1 {
		t.Fatalf("RejectedOverload = %d, want 1", st.RejectedOverload)
	}
}

// TestCancelRunningRunDrainsToPartialArtifact: DELETE on an executing run
// starts no new trial; the in-flight trial drains, and the artifact comes
// back flagged partial with the trials that never started marked skipped.
func TestCancelRunningRunDrainsToPartialArtifact(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	srv, err := serve.New(serve.Config{
		Workers:       1,
		RunnerFactory: blockingFactory(started, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSpec(t, ts.URL, synSpec) // 4 trials, 1 worker: plenty to cut
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := info["id"].(string)
	<-started // first trial is in flight

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel running run: %s", dresp.Status)
	}
	close(release) // let the in-flight trial drain

	ev, err := http.Get(ts.URL + info["events"].(string))
	if err != nil {
		t.Fatal(err)
	}
	var last serve.Event
	dec := json.NewDecoder(ev.Body)
	for {
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("stream ended before terminal event: %v", err)
		}
		if last.Terminal() {
			break
		}
	}
	ev.Body.Close()
	if last.Type != "cancelled" {
		t.Fatalf("terminal event %q, want cancelled", last.Type)
	}

	raw := fetchArtifact(t, ts.URL, info)
	art, err := exp.UnmarshalArtifact(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Partial {
		t.Fatal("cancelled run's artifact not flagged partial")
	}
	skipped := 0
	for _, tr := range art.Trials {
		if tr.Err == exp.SkippedErr {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancelled run skipped no trials")
	}

	// Cancelling a terminal run is a conflict, not a second cancellation.
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of terminal run: %s, want 409", dresp.Status)
	}
}

// TestCancelQueuedRunDiesImmediately: a run cancelled before a worker picks
// it up never executes a trial and has no artifact.
func TestCancelQueuedRunDiesImmediately(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	srv, err := serve.New(serve.Config{
		Workers:       1,
		MaxConcurrent: 1,
		MaxPending:    4,
		RunnerFactory: blockingFactory(started, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(release)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSpec(t, ts.URL, oneTrialSpec("blocker"))
	resp.Body.Close()
	<-started // blocker owns the only slot

	resp = postSpec(t, ts.URL, oneTrialSpec("victim"))
	var info map[string]any
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	id := info["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+id, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued run: %s, want 200", dresp.Status)
	}
	if st := runState(t, ts.URL, id); st != "cancelled" {
		t.Fatalf("queued run in state %q after cancel", st)
	}
	aresp, err := http.Get(ts.URL + info["artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusConflict {
		t.Fatalf("artifact of never-started run: %s, want 409", aresp.Status)
	}
	if st := srv.Stats(); st.TrialsExecuted != 0 {
		t.Fatalf("cancelled-while-queued run executed %d trials", st.TrialsExecuted)
	}
}

// TestRunDeadlineFailsSlowRuns: a run that overruns Config.RunTimeout stops
// dispatching and fails with a deadline error.
func TestRunDeadlineFailsSlowRuns(t *testing.T) {
	slow := func(study string, warm *core.WarmCache) (exp.Runner, error) {
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			time.Sleep(30 * time.Millisecond)
			return exp.Metrics{"v": 1}, nil, nil
		}, nil
	}
	srv, err := serve.New(serve.Config{Workers: 1, RunTimeout: 60 * time.Millisecond, RunnerFactory: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 1 cell × 20 trials at 30ms each: the 60ms deadline lands mid-run.
	info, events := submitAndWait(t, ts.URL,
		`{"name":"slow","study":"synthetic","base_seed":1,"trials":20}`)
	last := events[len(events)-1]
	if last["type"] != "error" {
		t.Fatalf("slow run ended with %v, want error", last)
	}
	if msg, _ := last["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not mention the deadline", msg)
	}
	if st := runState(t, ts.URL, info["id"].(string)); st != "failed" {
		t.Fatalf("deadline-exceeded run in state %q, want failed", st)
	}
}

// TestEventStreamOffsets: ?from=N skips already-seen history, an overrun
// offset (from a previous server incarnation) replays from the start, and a
// malformed offset is a client error.
func TestEventStreamOffsets(t *testing.T) {
	srv, err := serve.New(serve.Config{Workers: 1, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, events := submitAndWait(t, ts.URL, synSpec)
	total := len(events)
	if total < 3 {
		t.Fatalf("only %d events", total)
	}

	streamFrom := func(from string) []serve.Event {
		resp, err := http.Get(ts.URL + info["events"].(string) + "?from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("from=%s: %s", from, resp.Status)
		}
		var evs []serve.Event
		dec := json.NewDecoder(resp.Body)
		for {
			var ev serve.Event
			if err := dec.Decode(&ev); err != nil {
				break
			}
			evs = append(evs, ev)
		}
		return evs
	}

	mid := streamFrom("2")
	if len(mid) != total-2 {
		t.Fatalf("from=2 returned %d events, want %d", len(mid), total-2)
	}
	if mid[0].Seq != 2 {
		t.Fatalf("from=2 started at seq %d", mid[0].Seq)
	}
	// Seq numbering is dense: event i in the full replay has seq i.
	full := streamFrom("0")
	for i, ev := range full {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if stale := streamFrom("9999"); len(stale) != total {
		t.Fatalf("stale offset replayed %d events, want all %d", len(stale), total)
	}

	resp, err := http.Get(ts.URL + info["events"].(string) + "?from=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-1: %s, want 400", resp.Status)
	}
}

// TestSubmitBodyBound: a spec body one byte over 1 MiB gets 400, admits no
// run and writes nothing to the journal; the same spec padded to exactly
// 1 MiB is admitted. Leading whitespace keeps both bodies valid JSON, so
// only their size differs.
func TestSubmitBodyBound(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal")
	srv, err := serve.New(serve.Config{Workers: 1, JournalPath: jpath, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	journalBefore, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	spec := oneTrialSpec("padded")
	padded := func(size int) string { return strings.Repeat(" ", size-len(spec)) + spec }

	resp := postSpec(t, ts.URL, padded(1<<20+1))
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "request body too large") {
		t.Fatalf("1 MiB + 1 byte body: %s: %s", resp.Status, body)
	}
	if st := srv.Stats(); st.RunsSubmitted != 0 {
		t.Fatalf("oversized body admitted a run: RunsSubmitted = %d", st.RunsSubmitted)
	}
	if journal, err := os.ReadFile(jpath); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(journal, journalBefore) {
		t.Fatalf("oversized body reached the journal: %d bytes, was %d", len(journal), len(journalBefore))
	}

	resp = postSpec(t, ts.URL, padded(1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("1 MiB body: %s", resp.Status)
	}
	if st := srv.Stats(); st.RunsSubmitted != 1 {
		t.Fatalf("RunsSubmitted = %d, want 1", st.RunsSubmitted)
	}
}

// TestSubmitRejectedWhileDraining: once Shutdown begins, new submissions
// get 503 + Retry-After (the restart is coming), never a hang.
func TestSubmitRejectedWhileDraining(t *testing.T) {
	started := make(chan string, 16)
	release := make(chan struct{})
	srv, err := serve.New(serve.Config{Workers: 1, MaxConcurrent: 1, RunnerFactory: blockingFactory(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postSpec(t, ts.URL, oneTrialSpec("a"))
	resp.Body.Close()
	<-started

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Close() }()
	// Admission flips synchronously at the start of Shutdown; poll until the
	// drain flag is visible, then the run can finish.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postSpec(t, ts.URL, oneTrialSpec("late"))
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 carried no Retry-After hint")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still admitting: %s", resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatal(err)
	}
}

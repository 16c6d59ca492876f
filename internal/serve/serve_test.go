package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/serve"
)

// smokeSpec mirrors examples/specs/smoke.json: a small channel grid — two
// windows × two trials — that exercises the full warm + transmit path.
const smokeSpec = `{
  "name": "smoke",
  "study": "channel",
  "base_seed": 42,
  "trials": 2,
  "params": {"bits": "24", "pattern": "alternating"},
  "axes": [{"name": "window", "values": ["10000", "15000"]}]
}`

// submitAndWait posts a spec, follows the NDJSON event stream to the
// terminal event, and returns the run info and the events seen.
func submitAndWait(t *testing.T, base string, spec string) (map[string]any, []map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/runs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}

	ev, err := http.Get(base + info["events"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Body.Close()
	if ct := ev.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []map[string]any
	sc := bufio.NewScanner(ev.Body)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
		switch e["type"] {
		case "done", "error", "cancelled", "interrupted":
			return info, events
		}
	}
	t.Fatalf("event stream ended without a terminal event (err %v, %d events)", sc.Err(), len(events))
	return nil, nil
}

// runState fetches a run's current state via GET /v1/runs/{id}.
func runState(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	state, _ := info["state"].(string)
	return state
}

func fetchArtifact(t *testing.T, base string, info map[string]any) []byte {
	t.Helper()
	resp, err := http.Get(base + info["artifact"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: %s: %s", resp.Status, body)
	}
	return body
}

// TestServedArtifactMatchesLocalRun is the service's determinism proof: the
// artifact fetched over HTTP is byte-identical to what a local harness run
// (at a different worker count) produces for the same spec, and
// resubmitting the spec replays every trial from the memo — zero re-executed
// — returning byte-identical output again.
func TestServedArtifactMatchesLocalRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	o := obs.NewObserver()
	srv, err := serve.New(serve.Config{Workers: 2, StoreDir: t.TempDir(), Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, events := submitAndWait(t, ts.URL, smokeSpec)
	last := events[len(events)-1]
	if last["type"] != "done" {
		t.Fatalf("run ended with %v", last)
	}
	if len(events) < 3 { // queued + >=1 progress + done
		t.Fatalf("only %d events streamed", len(events))
	}
	served := fetchArtifact(t, ts.URL, info)

	spec, err := exp.ParseSpec([]byte(smokeSpec))
	if err != nil {
		t.Fatal(err)
	}
	if got := info["spec_sha256"].(string); got != spec.Hash() {
		t.Fatalf("run reports spec hash %s, want %s", got, spec.Hash())
	}
	rep, err := exp.RunSpec(spec, exp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := exp.MarshalArtifact(rep.Artifact())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local) {
		t.Fatalf("served artifact differs from local run (%d vs %d bytes)", len(served), len(local))
	}

	const totalTrials = 4 // 2 windows × 2 trials
	st := srv.Stats()
	if st.TrialsExecuted != totalTrials || st.TrialsMemoized != 0 {
		t.Fatalf("after first run: %+v, want %d executed, 0 memoized", st, totalTrials)
	}

	// Resubmission: entirely memoized, byte-identical.
	info2, events2 := submitAndWait(t, ts.URL, smokeSpec)
	if last := events2[len(events2)-1]; last["type"] != "done" {
		t.Fatalf("second run ended with %v", last)
	}
	served2 := fetchArtifact(t, ts.URL, info2)
	if !bytes.Equal(served, served2) {
		t.Fatal("resubmitted run returned a different artifact")
	}
	if info2["id"] == info["id"] {
		t.Fatal("resubmission reused the first run's id")
	}
	st = srv.Stats()
	if st.TrialsExecuted != totalTrials {
		t.Fatalf("resubmission re-executed trials: %+v", st)
	}
	if st.TrialsMemoized != totalTrials {
		t.Fatalf("resubmission not fully memoized: %+v", st)
	}
	counters := o.SnapshotAll().Counters
	if counters["serve.trials_executed"] != uint64(totalTrials) ||
		counters["serve.trials_memoized"] != uint64(totalTrials) ||
		counters["serve.runs_submitted"] != 2 {
		t.Fatalf("obs counters disagree: %v", counters)
	}
}

// TestShutdownPersistsWarmState: the warm states a server still holds in
// memory reach its store when it shuts down, not only the ones it evicted.
// A server restarted on the same directory then faults them in for a new
// window instead of warming up again, and serves the artifact a local run
// produces.
func TestShutdownPersistsWarmState(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel runs in -short mode")
	}
	spec := func(window string) string {
		return `{
  "name": "persist",
  "study": "channel",
  "base_seed": 42,
  "trials": 2,
  "params": {"bits": "24", "pattern": "alternating"},
  "axes": [{"name": "window", "values": ["` + window + `"]}],
  "shared_axes": ["window"]
}`
	}
	dir := t.TempDir()
	run := func(window string) (*serve.Server, []byte) {
		t.Helper()
		srv, err := serve.New(serve.Config{Workers: 2, StoreDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		info, events := submitAndWait(t, ts.URL, spec(window))
		if last := events[len(events)-1]; last["type"] != "done" {
			t.Fatalf("window %s: run ended with %v", window, last)
		}
		artifact := fetchArtifact(t, ts.URL, info)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return srv, artifact
	}

	first, _ := run("10000")
	if st := first.Stats().Warm; st != (core.WarmCacheStats{Computes: 2, DiskSpills: 2}) {
		t.Fatalf("first server: %+v, want 2 warm states computed and spilled at shutdown", st)
	}
	second, served := run("15000")
	if st := second.Stats().Warm; st.Computes != 0 || st.DiskLoads != 2 {
		t.Fatalf("restarted server: %+v, want 0 warm states computed and 2 loaded from disk", st)
	}

	sp, err := exp.ParseSpec([]byte(spec("15000")))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.RunSpec(sp, exp.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	local, err := exp.MarshalArtifact(rep.Artifact())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, local) {
		t.Fatalf("artifact served from disk-loaded warm states differs from local run (%d vs %d bytes)", len(served), len(local))
	}
}

func TestServeRejectsBadInput(t *testing.T) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: got %s", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"name":"x","trials":0}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid spec: got %s", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"name":"x","study":"no-such-study","trials":1,"axes":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown study: got %s", resp.Status)
	}

	for _, path := range []string{"/v1/runs/nope", "/v1/runs/nope/events", "/v1/runs/nope/artifact"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: got %s", path, resp.Status)
		}
	}
}

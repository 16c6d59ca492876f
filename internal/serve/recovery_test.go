package serve_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/serve"
	"meecc/internal/serve/journal"
	"meecc/internal/snapstore"
)

// walMagicLen is the journal file header ("MEECWAL\x00") the frame stream
// starts after.
const walMagicLen = 8

// synSpec is a fast synthetic grid: 2 cells × 2 trials = 4 trials.
const synSpec = `{
  "name": "syn",
  "study": "synthetic",
  "base_seed": 7,
  "trials": 2,
  "axes": [{"name": "w", "values": ["1", "2"]}]
}`

// syntheticFactory resolves the "synthetic" study to a trivially fast pure
// runner — metrics derive only from the job's seed, upholding the Runner
// contract the journal's exact-replay guarantee rests on.
func syntheticFactory(study string, warm *core.WarmCache) (exp.Runner, error) {
	if study != "synthetic" {
		return nil, fmt.Errorf("unknown study %q", study)
	}
	return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
		return exp.Metrics{"value": float64(j.Seed%1000) / 7}, nil, nil
	}, nil
}

// cutJournal rewrites the journal at path to keep only the KindRun record
// and the first keepTrials trial records, then appends garbage bytes — the
// torn half-record a kill -9 mid-write leaves. It returns how many trial
// records were dropped.
func cutJournal(t *testing.T, path string, keepTrials int) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := walMagicLen
	trials, dropped := 0, 0
	rest := data[walMagicLen:]
	for len(rest) > 0 {
		payload, next, err := snapstore.NextFrame(rest)
		if err != nil {
			break
		}
		rec, err := journal.Decode(payload)
		if err != nil {
			break
		}
		keep := true
		if rec.Kind == journal.KindTrial {
			trials++
			if trials > keepTrials {
				keep = false
				dropped++
			}
		} else if rec.Kind != journal.KindRun {
			keep = false // drop End/Checkpoint: the run must look interrupted
		}
		if keep {
			end = len(data) - len(rest) + (len(rest) - len(next))
		}
		rest = next
	}
	torn := append(append([]byte(nil), data[:end]...), 0xDE, 0xAD, 0xBE)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	return dropped
}

// TestCrashRecoveryResumesOnlyUncommittedTrials is the tentpole guarantee:
// a server killed mid-run loses nothing that committed. The journal is cut
// back to the run record plus two of four trials (with a torn tail on top,
// exactly what SIGKILL mid-write leaves), a second server replays it, and
// resubmitting the spec re-executes ONLY the two uncommitted trials while
// producing an artifact byte-identical to the uninterrupted run's.
func TestCrashRecoveryResumesOnlyUncommittedTrials(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "serve.wal")

	srv1, err := serve.New(serve.Config{Workers: 1, JournalPath: jpath, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	info1, events1 := submitAndWait(t, ts1.URL, synSpec)
	if last := events1[len(events1)-1]; last["type"] != "done" {
		t.Fatalf("first run ended with %v", last)
	}
	uninterrupted := fetchArtifact(t, ts1.URL, info1)
	ts1.Close()
	srv1.Close()

	healthy, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	dropped := cutJournal(t, jpath, 2)
	if dropped != 2 {
		t.Fatalf("cut dropped %d trial records, want 2", dropped)
	}

	srv2, err := serve.New(serve.Config{Workers: 1, JournalPath: jpath, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	// Replay: the run record plus the two committed trials; the run itself,
	// lacking a terminal record, comes back interrupted (resumable).
	st := srv2.Stats()
	if st.JournalReplayed != 3 {
		t.Fatalf("replayed %d records, want 3", st.JournalReplayed)
	}
	if st.RunsResumed != 1 {
		t.Fatalf("RunsResumed = %d, want 1", st.RunsResumed)
	}
	if healed, err := os.ReadFile(jpath); err != nil {
		t.Fatal(err)
	} else if len(healed) >= len(healthy) {
		t.Fatalf("torn journal not truncated: %d bytes, healthy was %d", len(healed), len(healthy))
	}
	if st := runState(t, ts2.URL, info1["id"].(string)); st != "interrupted" {
		t.Fatalf("pre-crash run replayed in state %q, want interrupted", st)
	}

	// Resume: resubmit the same spec. Exactly the two uncommitted trials
	// execute; the artifact matches the uninterrupted run byte for byte.
	info2, events2 := submitAndWait(t, ts2.URL, synSpec)
	if last := events2[len(events2)-1]; last["type"] != "done" {
		t.Fatalf("resumed run ended with %v", last)
	}
	resumed := fetchArtifact(t, ts2.URL, info2)
	if !bytes.Equal(resumed, uninterrupted) {
		t.Fatalf("resumed artifact differs from uninterrupted run (%d vs %d bytes)",
			len(resumed), len(uninterrupted))
	}
	st = srv2.Stats()
	if st.TrialsExecuted != 2 {
		t.Fatalf("resume executed %d trials, want exactly the 2 uncommitted", st.TrialsExecuted)
	}
	if st.TrialsMemoized != 2 {
		t.Fatalf("resume memo-replayed %d trials, want 2", st.TrialsMemoized)
	}
}

// TestCleanShutdownReplaysTerminalRuns: a journal closed by an orderly
// Shutdown replays its runs in their terminal states, artifacts included,
// and resubmission is fully memoized.
func TestCleanShutdownReplaysTerminalRuns(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "serve.wal")

	srv1, err := serve.New(serve.Config{Workers: 1, JournalPath: jpath, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	info1, _ := submitAndWait(t, ts1.URL, synSpec)
	art1 := fetchArtifact(t, ts1.URL, info1)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := serve.New(serve.Config{Workers: 1, JournalPath: jpath, RunnerFactory: syntheticFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()

	id := info1["id"].(string)
	if st := runState(t, ts2.URL, id); st != "done" {
		t.Fatalf("replayed run in state %q, want done", st)
	}
	// The artifact survived inside the journal's End record.
	replayed := fetchArtifact(t, ts2.URL, map[string]any{"artifact": "/v1/runs/" + id + "/artifact"})
	if !bytes.Equal(replayed, art1) {
		t.Fatal("artifact replayed from journal differs from the original")
	}

	info2, _ := submitAndWait(t, ts2.URL, synSpec)
	fetchArtifact(t, ts2.URL, info2)
	if st := srv2.Stats(); st.TrialsExecuted != 0 || st.TrialsMemoized != 4 {
		t.Fatalf("resubmit after clean restart: %+v, want 0 executed / 4 memoized", st)
	}
}

package exp

import (
	"context"
	"sync"
	"testing"

	"meecc/internal/obs"
)

// TestContextCancelStopsDispatch: cancelling Config.Context stops dispatch,
// in-flight trials drain, and the report and its artifact come back Partial
// with the cut-off trials skipped and counted as failures — Run itself never
// returns the context's error.
func TestContextCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	var once sync.Once
	runner := func(j Job) (Metrics, *obs.Snapshot, error) {
		started <- struct{}{}
		once.Do(func() { cancel(context.Canceled) })
		<-release
		return fakeRunner(j)
	}
	done := make(chan *Report, 1)
	go func() {
		rep, err := Run(gridSpec(), runner, Config{Workers: 2, Context: ctx})
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	<-started
	close(release)
	rep := <-done
	if rep == nil {
		t.Fatal("no report")
	}
	if !rep.Partial {
		t.Fatal("context-cancelled run not flagged partial")
	}
	ran, skipped := 0, 0
	for _, tr := range rep.Trials {
		if tr.Err == SkippedErr {
			skipped++
		} else {
			ran++
		}
	}
	if skipped == 0 {
		t.Fatal("no trials skipped after context cancel")
	}
	if ran > 4 { // 2 workers in flight + at most the handed-off pair
		t.Fatalf("%d trials ran after cancel; dispatch did not stop", ran)
	}
	if rep.Failures() < skipped {
		t.Fatalf("failures %d < skipped %d", rep.Failures(), skipped)
	}
	if !rep.Artifact().Partial {
		t.Fatal("artifact not flagged partial")
	}
}

// TestContextAlreadyDone: a context that expired before Run starts yields a
// fully skipped Partial report, not an error — the caller learns why from
// context.Cause, keeping cancellation out of the artifact's byte content.
func TestContextAlreadyDone(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(gridSpec(), fakeRunner, Config{Workers: 2, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("report not partial")
	}
	for _, tr := range rep.Trials {
		if tr.Err != SkippedErr {
			t.Fatalf("trial %d/%d ran under a dead context", tr.Cell, tr.Trial)
		}
	}
}

// TestNilContextRunsToCompletion: Config.Context is optional; the zero
// Config behaves exactly as before the field existed.
func TestNilContextRunsToCompletion(t *testing.T) {
	rep, err := Run(gridSpec(), fakeRunner, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("uncancelled run flagged partial")
	}
}

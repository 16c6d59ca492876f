package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meecc/internal/obs"
	"meecc/internal/sim"
)

// fakeRunner is a pure function of the job — deterministic metrics derived
// from the seed, with a scripted failure for one (cell, trial) pair.
func fakeRunner(j Job) (Metrics, *obs.Snapshot, error) {
	if v, _ := j.Cell.Get("mode"); v == "flaky" && j.Trial == 1 {
		return nil, nil, errors.New("scripted setup failure")
	}
	x := SplitMix64(j.Seed)
	return Metrics{
		"rate": float64(x%10_000) / 100,
		"err":  float64((x>>32)%1000) / 1000,
	}, nil, nil
}

func gridSpec() *Spec {
	return &Spec{
		Name:     "unit",
		Study:    "fake",
		BaseSeed: 42,
		Trials:   5,
		Params:   map[string]string{"bits": "64"},
		Axes: []Axis{
			{Name: "window", Values: []string{"5000", "15000", "30000"}},
			{Name: "mode", Values: []string{"quiet", "flaky"}},
		},
	}
}

func TestCellsCrossProductOrder(t *testing.T) {
	spec := gridSpec()
	cells := spec.Cells()
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	wantKeys := []string{
		"window=5000,mode=quiet", "window=5000,mode=flaky",
		"window=15000,mode=quiet", "window=15000,mode=flaky",
		"window=30000,mode=quiet", "window=30000,mode=flaky",
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Key() != wantKeys[i] {
			t.Errorf("cell %d key %q, want %q", i, c.Key(), wantKeys[i])
		}
	}
	// The axis-less spec has exactly one cell.
	solo := &Spec{Name: "solo", Trials: 1}
	if cells := solo.Cells(); len(cells) != 1 || cells[0].Key() != "-" {
		t.Errorf("axis-less spec cells = %+v", cells)
	}
}

func TestParamMapMergesAxesOverConstants(t *testing.T) {
	spec := gridSpec()
	spec.Params["mode"] = "overridden-by-axis"
	cell := spec.Cells()[0]
	m := spec.ParamMap(cell)
	if m["bits"] != "64" || m["window"] != "5000" || m["mode"] != "quiet" {
		t.Errorf("param map = %v", m)
	}
}

func TestTrialSeedDerivation(t *testing.T) {
	// Locked-in value: the derivation rule is part of the artifact
	// contract — changing it invalidates every recorded artifact.
	if got := TrialSeed(42, "window=15000", 0); got != TrialSeed(42, "window=15000", 0) {
		t.Fatal("TrialSeed is not a pure function")
	}
	seen := map[uint64]string{}
	for _, key := range []string{"a=1", "a=2", "b=1"} {
		for trial := 0; trial < 100; trial++ {
			s := TrialSeed(7, key, trial)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s/%d and %s", key, trial, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", key, trial)
		}
	}
	if TrialSeed(1, "a=1", 0) == TrialSeed(2, "a=1", 0) {
		t.Error("base seed does not influence trial seed")
	}
}

func TestValidateRejectsMalformedSpecs(t *testing.T) {
	bad := []*Spec{
		{Trials: 1},            // no name
		{Name: "x", Trials: 0}, // no trials
		{Name: "x", Trials: 1, Axes: []Axis{{Name: "", Values: []string{"1"}}}},
		{Name: "x", Trials: 1, Axes: []Axis{{Name: "a", Values: nil}}},
		{Name: "x", Trials: 1, Axes: []Axis{{Name: "a", Values: []string{"1"}}, {Name: "a", Values: []string{"2"}}}},
		{Name: "x", Trials: 1, Axes: []Axis{{Name: "a", Values: []string{"1,2"}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not have", i)
		}
	}
	if _, err := ParseSpec([]byte(`{"name":"ok","trials":2,"axes":[{"name":"w","values":["1"]}]}`)); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if _, err := ParseSpec([]byte(`not json`)); err == nil {
		t.Error("garbage spec accepted")
	}
}

// TestDeterministicAcrossWorkerCounts is the harness's core guarantee:
// the same spec produces byte-identical aggregated JSON at workers=1 and
// workers=8, whether each trial is its own dispatch unit or shared axes
// group a seed's windows into one.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, spec := range []*Spec{gridSpec(), sharedGridSpec()} {
		var artifacts [][]byte
		for _, w := range []int{1, 8} {
			rep, err := Run(spec, fakeRunner, Config{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Workers != w {
				t.Errorf("report workers %d, want %d", rep.Workers, w)
			}
			b, err := MarshalArtifact(rep.Artifact())
			if err != nil {
				t.Fatal(err)
			}
			artifacts = append(artifacts, b)
		}
		if !bytes.Equal(artifacts[0], artifacts[1]) {
			t.Fatalf("shared axes %v: artifacts differ between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s",
				spec.SharedAxes, artifacts[0], artifacts[1])
		}
	}
}

func TestFailuresAreRecordedPerCell(t *testing.T) {
	rep, err := Run(gridSpec(), fakeRunner, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		mode, _ := c.Cell.Get("mode")
		wantFail := 0
		if mode == "flaky" {
			wantFail = 1 // trial 1 fails by script
		}
		if c.Failures != wantFail {
			t.Errorf("cell %s: %d failures, want %d", c.Key, c.Failures, wantFail)
		}
		if n := c.Stat("rate").N; n != c.Trials-wantFail {
			t.Errorf("cell %s: rate aggregated over %d trials, want %d", c.Key, n, c.Trials-wantFail)
		}
	}
	if rep.Failures() != 3 {
		t.Errorf("total failures %d, want 3 (one per flaky cell)", rep.Failures())
	}
	// Failed trials carry the error string in the per-trial record.
	found := false
	for _, tr := range rep.Trials {
		if tr.Err != "" {
			found = true
			if tr.Metrics != nil {
				t.Error("failed trial carries metrics")
			}
		}
	}
	if !found {
		t.Error("no failed trial recorded")
	}
}

func TestProgressReachesTotals(t *testing.T) {
	spec := gridSpec()
	var last Progress
	calls := 0
	_, err := Run(spec, fakeRunner, Config{Workers: 3, OnProgress: func(p Progress) {
		calls++
		last = p
	}})
	if err != nil {
		t.Fatal(err)
	}
	total := 6 * spec.Trials
	if calls != total {
		t.Errorf("progress called %d times, want %d", calls, total)
	}
	if last.Done != total || last.Total != total || last.CellsDone != 6 || last.Cells != 6 {
		t.Errorf("final progress %+v", last)
	}
	if last.ETA() != 0 {
		t.Errorf("final ETA %v, want 0", last.ETA())
	}
}

func TestAggregateStatistics(t *testing.T) {
	spec := &Spec{Name: "agg", Trials: 4}
	vals := map[int]float64{0: 1, 1: 2, 2: 3, 3: 6}
	rep, err := Run(spec, func(j Job) (Metrics, *obs.Snapshot, error) {
		return Metrics{"v": vals[j.Trial]}, nil, nil
	}, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Cells[0].Stat("v")
	if s.N != 4 || s.Mean != 3 || s.Min != 1 || s.Max != 6 {
		t.Errorf("stat %+v", s)
	}
	wantSD := math.Sqrt((4 + 1 + 0 + 9) / 3.0)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("stddev %v, want %v", s.StdDev, wantSD)
	}
	if math.Abs(s.CI95-1.96*wantSD/2) > 1e-12 {
		t.Errorf("ci95 %v, want %v", s.CI95, 1.96*wantSD/2)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(&Spec{}, fakeRunner, Config{}); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Run(gridSpec(), nil, Config{}); err == nil {
		t.Error("nil runner accepted")
	}
	if _, err := RunnerFor("no-such-study"); err == nil {
		t.Error("unknown study accepted")
	}
	if _, err := RunnerFor(""); err != nil {
		t.Errorf("empty study should default to channel: %v", err)
	}
}

// TestGoldenArtifact locks the artifact and manifest schema. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/exp -run Golden after a
// deliberate, version-bumped schema change.
func TestGoldenArtifact(t *testing.T) {
	spec := &Spec{
		Name:     "golden",
		Study:    "fake",
		BaseSeed: 7,
		Trials:   2,
		Params:   map[string]string{"bits": "32"},
		Axes:     []Axis{{Name: "mode", Values: []string{"quiet", "flaky"}}},
	}
	rep, err := Run(spec, fakeRunner, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalArtifact(rep.Artifact())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_artifact.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact schema drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteArtifactsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rep, err := Run(gridSpec(), fakeRunner, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	artPath, manPath, err := WriteArtifacts(dir, rep)
	if err != nil {
		t.Fatal(err)
	}
	art, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema_version": 1`, `"cells":`, `"trials":`, `"base_seed": 42`} {
		if !strings.Contains(string(art), want) {
			t.Errorf("artifact missing %s", want)
		}
	}
	for _, want := range []string{`"schema_version": 1`, `"git_rev"`, `"workers"`, `"wall_ms"`, `"artifact_sha256"`} {
		if !strings.Contains(string(man), want) {
			t.Errorf("manifest missing %s", want)
		}
	}
}

func TestPanickingTrialIsRecordedNotFatal(t *testing.T) {
	runner := func(j Job) (Metrics, *obs.Snapshot, error) {
		if v, _ := j.Cell.Get("mode"); v == "flaky" && j.Trial == 2 {
			panic("trial blew up")
		}
		return fakeRunner(j)
	}
	rep, err := Run(gridSpec(), runner, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	panicked := 0
	for _, tr := range rep.Trials {
		if strings.Contains(tr.Err, "trial blew up") {
			panicked++
			if !strings.Contains(tr.Err, "runTrial") && !strings.Contains(tr.Err, "goroutine") {
				t.Errorf("panic record carries no stack trace: %q", tr.Err[:80])
			}
		}
	}
	// One flaky-mode cell per window value, trial 2 of each.
	if panicked != 3 {
		t.Fatalf("recorded %d panicked trials, want 3", panicked)
	}
	// The panicking cells also have their scripted trial-1 failure.
	for _, c := range rep.Cells {
		if v, _ := c.Cell.Get("mode"); v == "flaky" && c.Failures != 2 {
			t.Fatalf("cell %s: %d failures, want 2 (scripted + panic)", c.Key, c.Failures)
		}
	}
}

// TestChaosArtifactByteIdenticalAcrossWorkers is the chaos-study acceptance
// check: identical artifact bytes at any worker count, faults and all.
func TestChaosArtifactByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	spec := &Spec{
		Name:     "chaos-det",
		Study:    "chaos",
		BaseSeed: 7,
		Trials:   1,
		Params:   map[string]string{"payload": "4", "faults": "meeflush"},
		Axes:     []Axis{{Name: "intensity", Values: []string{"0", "6"}}},
	}
	render := func(workers int) []byte {
		rep, err := RunSpec(spec, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalArtifact(rep.Artifact())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := render(1), render(4); !bytes.Equal(a, b) {
		t.Fatal("chaos artifacts differ between 1 and 4 workers")
	}
}

// TestActorPanicCarriesActorNameAndStack exercises the typed-panic
// cooperation between the simulation engine and the harness: a panic inside
// a simulated actor crosses Engine.Run as a *sim.PanicError, and runTrial
// must report the actor's name and the stack captured inside the actor
// body — not the worker goroutine's resume plumbing.
func TestActorPanicCarriesActorNameAndStack(t *testing.T) {
	runner := func(j Job) (Metrics, *obs.Snapshot, error) {
		if v, _ := j.Cell.Get("mode"); v == "flaky" {
			eng := sim.NewEngine(j.Seed)
			defer eng.Close()
			eng.Spawn("detonator", func(p *sim.Proc) {
				p.Advance(10)
				panic("actor kaboom")
			})
			eng.Run(-1)
		}
		return fakeRunner(j)
	}
	rep, err := Run(gridSpec(), runner, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, tr := range rep.Trials {
		if !strings.Contains(tr.Err, "actor kaboom") {
			continue
		}
		found++
		if !strings.Contains(tr.Err, `actor "detonator"`) {
			t.Errorf("panic record lost the actor name: %q", tr.Err)
		}
		// The stack must be the actor's own, taken at the panic site.
		if !strings.Contains(tr.Err, "exp_test.go") || !strings.Contains(tr.Err, "run.func") && !strings.Contains(tr.Err, "goroutine") {
			t.Errorf("panic record carries no actor stack: %q", tr.Err)
		}
	}
	if found == 0 {
		t.Fatal("no trial recorded the actor panic")
	}
}

package exp

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"meecc/internal/core"
	"meecc/internal/obs"
)

func TestSeedKeyStripsSharedAxes(t *testing.T) {
	spec := &Spec{
		Name:   "sk",
		Trials: 1,
		Axes: []Axis{
			{Name: "window", Values: []string{"7500", "15000"}},
			{Name: "noise", Values: []string{"none", "memory"}},
		},
	}
	cells := spec.Cells()

	// No shared axes: SeedKey is the cell key.
	for _, c := range cells {
		if got := spec.SeedKey(c); got != c.Key() {
			t.Errorf("no shared axes: SeedKey %q != Key %q", got, c.Key())
		}
	}

	spec.SharedAxes = []string{"window"}
	if got := spec.SeedKey(cells[0]); got != "noise=none" {
		t.Errorf("SeedKey with window shared = %q, want %q", got, "noise=none")
	}

	spec.SharedAxes = []string{"window", "noise"}
	if got := spec.SeedKey(cells[0]); got != "-" {
		t.Errorf("SeedKey with all axes shared = %q, want %q", got, "-")
	}
}

func TestValidateSharedAxes(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:   "v",
			Trials: 1,
			Axes:   []Axis{{Name: "window", Values: []string{"7500"}}},
		}
	}
	ok := base()
	ok.SharedAxes = []string{"window"}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid shared axis rejected: %v", err)
	}
	unknown := base()
	unknown.SharedAxes = []string{"noise"}
	if err := unknown.Validate(); err == nil {
		t.Error("shared axis naming a non-axis accepted")
	}
	dup := base()
	dup.SharedAxes = []string{"window", "window"}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate shared axis accepted")
	}
}

// TestSharedAxesPairSeeds checks the seed contract: trial t of two cells
// that differ only in a shared axis gets one seed (a paired comparison),
// while distinct trials still get distinct seeds.
func TestSharedAxesPairSeeds(t *testing.T) {
	spec := &Spec{
		Name:       "pair",
		Trials:     3,
		BaseSeed:   7,
		Axes:       []Axis{{Name: "window", Values: []string{"7500", "15000", "30000"}}},
		SharedAxes: []string{"window"},
	}
	runner := func(j Job) (Metrics, *obs.Snapshot, error) {
		return Metrics{"seed": float64(j.Seed)}, nil, nil
	}
	rep, err := Run(spec, runner, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int]map[uint64]bool{}
	for _, tr := range rep.Trials {
		if seeds[tr.Trial] == nil {
			seeds[tr.Trial] = map[uint64]bool{}
		}
		seeds[tr.Trial][tr.Seed] = true
	}
	for trial, set := range seeds {
		if len(set) != 1 {
			t.Errorf("trial %d has %d distinct seeds across shared cells, want 1", trial, len(set))
		}
	}
	if seeds[0] == nil || seeds[1] == nil || len(seeds) != 3 {
		t.Fatalf("expected 3 trial indices, got %d", len(seeds))
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			for s := range seeds[a] {
				if seeds[b][s] {
					t.Errorf("trials %d and %d share seed %d", a, b, s)
				}
			}
		}
	}
}

// TestSharedAxesWarmMatchesFreshAcrossWorkers is the end-to-end guarantee
// for warm-state sharing: a shared-axis channel spec produces byte-identical
// artifacts at any worker count, and those artifacts are exactly what a
// runner that never touches the warm cache produces. The warm fork is an
// optimization, never an observable. The second grid shares its MEE noise
// and fault axes, whose cells fork one warm state per seed and arm their
// environment on the fork.
func TestSharedAxesWarmMatchesFreshAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full channel simulations in -short mode")
	}
	fresh := func(j Job) (Metrics, *obs.Snapshot, error) {
		return core.ChannelTrialWarm(j.Params(), j.Seed, j.Spec.Metrics, nil)
	}
	for _, spec := range []*Spec{{
		Name:       "shared-warm",
		Study:      "channel",
		BaseSeed:   42,
		Trials:     2,
		Params:     map[string]string{"bits": "16", "pattern": "alternating"},
		Axes:       []Axis{{Name: "window", Values: []string{"7500", "15000"}}},
		SharedAxes: []string{"window"},
	}, {
		Name:     "shared-environment",
		Study:    "channel",
		BaseSeed: 42,
		Trials:   2,
		Params:   map[string]string{"bits": "64", "pattern": "alternating", "intensity": "2"},
		Axes: []Axis{
			{Name: "noise", Values: []string{"none", "mee512", "mee4k"}},
			{Name: "faults", Values: []string{"none", "paging", "migration", "storm"}},
		},
		SharedAxes: []string{"noise", "faults"},
	}} {
		var artifacts [][]byte
		run := func(label string, via func() (*Report, error)) {
			rep, err := via()
			if err != nil {
				t.Fatalf("%s, %s: %v", spec.Name, label, err)
			}
			if n := rep.Failures(); n > 0 {
				t.Fatalf("%s, %s: %d channel trials failed: %+v", spec.Name, label, n, rep.Trials)
			}
			b, err := MarshalArtifact(rep.Artifact())
			if err != nil {
				t.Fatalf("%s, %s: %v", spec.Name, label, err)
			}
			artifacts = append(artifacts, b)
		}
		run("warm workers=1", func() (*Report, error) { return RunSpec(spec, Config{Workers: 1}) })
		run("warm workers=4", func() (*Report, error) { return RunSpec(spec, Config{Workers: 4}) })
		run("fresh workers=2", func() (*Report, error) { return Run(spec, fresh, Config{Workers: 2}) })

		for i := 1; i < len(artifacts); i++ {
			if !bytes.Equal(artifacts[0], artifacts[i]) {
				t.Fatalf("%s: artifact %d differs from warm workers=1 baseline:\n%s\n---\n%s",
					spec.Name, i, artifacts[0], artifacts[i])
			}
		}
	}
}

// sharedGridSpec is gridSpec with the window axis shared: in each trial the
// three windows of one mode share a seed, so they form one dispatch unit.
func sharedGridSpec() *Spec {
	spec := gridSpec()
	spec.SharedAxes = []string{"window"}
	return spec
}

// TestSharedSeedTrialsRunAsOneUnit drives the dispatcher by events. Cell 0's
// trial 0 starts first (every other seed waits for it) and holds its worker
// until two more trials have started. The other worker must spend them on
// another seed: a dispatcher that hands it the held seed's next window
// starts that trial while the held one is still in flight.
func TestSharedSeedTrialsRunAsOneUnit(t *testing.T) {
	spec := sharedGridSpec()
	held := TrialSeed(spec.BaseSeed, spec.SeedKey(spec.Cells()[0]), 0)
	heldRunning := make(chan struct{})
	release := make(chan struct{})
	var (
		mu       sync.Mutex
		inflight = map[uint64]int{}   // seed -> trials of it in flight
		cellsOf  = map[uint64][]int{} // seed -> cells in start order
		started  int
		overlap  bool // two seeds were in flight at once
	)
	runner := func(j Job) (Metrics, *obs.Snapshot, error) {
		first := j.Cell.Index == 0 && j.Trial == 0
		if j.Seed != held {
			<-heldRunning
		}
		mu.Lock()
		if inflight[j.Seed] > 0 {
			t.Errorf("cell %d trial %d started while another trial of its seed was in flight", j.Cell.Index, j.Trial)
		}
		if len(inflight) > 0 && inflight[j.Seed] == 0 {
			overlap = true
		}
		inflight[j.Seed]++
		cellsOf[j.Seed] = append(cellsOf[j.Seed], j.Cell.Index)
		if started++; started == 3 {
			close(release)
		}
		mu.Unlock()
		if first {
			close(heldRunning)
			<-release
		}
		mu.Lock()
		if inflight[j.Seed]--; inflight[j.Seed] == 0 {
			delete(inflight, j.Seed)
		}
		mu.Unlock()
		return fakeRunner(j)
	}
	rep, err := Run(spec, runner, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatal("uncancelled run flagged partial")
	}
	if !overlap {
		t.Error("no two seeds were ever in flight at once")
	}
	if len(cellsOf) != 2*spec.Trials {
		t.Fatalf("%d distinct seeds ran, want %d", len(cellsOf), 2*spec.Trials)
	}
	for seed, cells := range cellsOf {
		if len(cells) != 3 {
			t.Errorf("seed %d ran %d trials, want 3 (one per window)", seed, len(cells))
		}
		for k := 1; k < len(cells); k++ {
			if cells[k] <= cells[k-1] {
				t.Errorf("seed %d started its cells in order %v, want cell order", seed, cells)
				break
			}
		}
	}
}

// TestCancelInsideUnitSkipsItsRest stops a run through Config.Context
// while a unit's first trial runs: the worker holding the unit must not
// start its later windows, which come back skipped. The subtest is named
// after the stop signal it drives.
func TestCancelInsideUnitSkipsItsRest(t *testing.T) {
	t.Run("Context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cut := make(chan Job, 1)
		release := make(chan struct{})
		var once sync.Once
		runner := func(j Job) (Metrics, *obs.Snapshot, error) {
			once.Do(func() {
				cancel()
				cut <- j
			})
			<-release
			return fakeRunner(j)
		}
		done := make(chan *Report, 1)
		go func() {
			rep, err := Run(sharedGridSpec(), runner, Config{Workers: 2, Context: ctx})
			if err != nil {
				t.Error(err)
			}
			done <- rep
		}()
		first := <-cut
		close(release)
		rep := <-done
		if rep == nil {
			t.Fatal("no report")
		}
		if !rep.Partial || !rep.Artifact().Partial {
			t.Fatalf("report partial %v, artifact partial %v; want both", rep.Partial, rep.Artifact().Partial)
		}
		ran := 0
		for _, tr := range rep.Trials {
			skipped := tr.Err == SkippedErr
			if !skipped {
				ran++
			}
			if tr.Seed != first.Seed {
				continue
			}
			switch {
			case tr.Cell == first.Cell.Index && skipped:
				t.Error("the trial that cancelled the run is recorded as skipped")
			case tr.Cell != first.Cell.Index && !skipped:
				t.Errorf("cell %d of the cancelled unit ran after the cancel", tr.Cell)
			}
		}
		if ran > 4 {
			t.Fatalf("%d trials ran after cancel; the stop did not hold", ran)
		}
	})
}

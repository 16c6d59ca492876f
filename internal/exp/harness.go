package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"meecc/internal/obs"
	"meecc/internal/obs/ops"
	"meecc/internal/sim"
	"meecc/internal/trace"
)

// Metrics is one trial's scalar results, keyed by metric name.
type Metrics map[string]float64

// Job identifies one trial of one cell, with its derived seed.
type Job struct {
	Spec  *Spec
	Cell  Cell
	Trial int
	Seed  uint64
}

// Params is the job's flat parameter view (spec constants + axis values).
func (j Job) Params() map[string]string { return j.Spec.ParamMap(j.Cell) }

// Runner executes one trial. It must be safe for concurrent use and must
// depend only on the job (in particular its seed), never on shared mutable
// state — the harness's determinism guarantee is exactly that the runner
// is a pure function of the job. The snapshot return is nil unless the
// spec requested metrics collection (Spec.Metrics); when non-nil it must be
// a Semantic-only snapshot so the byte-identity guarantee extends to it.
type Runner func(Job) (Metrics, *obs.Snapshot, error)

// TrialResult records one finished trial in the artifact.
type TrialResult struct {
	Cell    int     `json:"cell"`
	CellKey string  `json:"cell_key"`
	Trial   int     `json:"trial"`
	Seed    uint64  `json:"seed"`
	Metrics Metrics `json:"metrics,omitempty"`
	// Obs is the trial's metrics snapshot when the spec set Metrics; the
	// omitempty keeps artifacts from unobserved runs byte-identical to
	// pre-observability output.
	Obs *obs.Snapshot `json:"obs,omitempty"`
	Err string        `json:"error,omitempty"`
}

// CellResult aggregates one cell across its trials.
type CellResult struct {
	Cell     Cell   `json:"cell"`
	Key      string `json:"key"`
	Trials   int    `json:"trials"`
	Failures int    `json:"failures"`
	// Stats summarizes each metric over the successful trials. JSON
	// marshalling sorts the keys, keeping artifacts canonical.
	Stats map[string]trace.Stat `json:"stats"`
}

// Stat returns the aggregate for a metric (zero Stat if absent).
func (c *CellResult) Stat(metric string) trace.Stat { return c.Stats[metric] }

// Progress reports fan-out state to a live observer.
type Progress struct {
	Done      int // trials finished
	Total     int // trials overall
	CellsDone int // cells with every trial finished
	Cells     int
	Elapsed   time.Duration
}

// ETA extrapolates the remaining wall time from current throughput.
func (p Progress) ETA() time.Duration {
	if p.Done == 0 || p.Done == p.Total {
		return 0
	}
	return time.Duration(float64(p.Elapsed) / float64(p.Done) * float64(p.Total-p.Done))
}

// Config tunes one harness run.
type Config struct {
	// Workers sizes the pool; <= 0 means GOMAXPROCS.
	Workers int
	// OnProgress, when set, is invoked (serialized) after every finished
	// trial.
	OnProgress func(Progress)
	// Context, when non-nil, stops the run when it ends: no new trial
	// starts, in-flight trials drain to completion, and the report comes
	// back flagged Partial with the trials that never started marked
	// skipped. Run never returns the context's error: a cancelled run is a
	// Partial report, and the caller inspects context.Cause to learn why.
	Context context.Context
	// Ops, when non-nil, receives wall-clock dispatcher telemetry: per-trial
	// queue wait and execution latency, worker busy time, and in-flight
	// gauges. Operational only — nothing recorded here can reach the report
	// or the artifact, which stay byte-identical with Ops on or off.
	Ops *ops.Registry
}

// Report is one complete harness run: every trial result in deterministic
// (cell-major, then trial) order plus per-cell aggregates, with the
// run's non-deterministic envelope (wall time, workers) kept separate
// from the deterministic payload.
type Report struct {
	Spec     *Spec
	Trials   []TrialResult
	Cells    []CellResult
	Workers  int
	WallTime time.Duration
	// Partial is true when the run was cancelled before every trial
	// started; skipped trials carry Err == SkippedErr.
	Partial bool
}

// SkippedErr marks trials a cancelled run never started.
const SkippedErr = "skipped: run cancelled"

// Cell returns the aggregate whose key matches, or nil.
func (r *Report) Cell(key string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Key == key {
			return &r.Cells[i]
		}
	}
	return nil
}

// Failures counts failed trials across all cells.
func (r *Report) Failures() int {
	n := 0
	for _, c := range r.Cells {
		n += c.Failures
	}
	return n
}

// Run fans the spec's (cell × trial) jobs out over the worker pool and
// aggregates per-cell statistics. Results are byte-identical for a given
// spec at any worker count: seeds derive from (cell, trial), every result
// lands at its precomputed index, and aggregation runs in trial order.
func Run(spec *Spec, runner Runner, cfg Config) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if runner == nil {
		return nil, fmt.Errorf("exp: spec %q: nil runner", spec.Name)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cells := spec.Cells()
	jobs := make([]Job, 0, len(cells)*spec.Trials)
	for _, cell := range cells {
		key := spec.SeedKey(cell)
		for t := 0; t < spec.Trials; t++ {
			jobs = append(jobs, Job{
				Spec:  spec,
				Cell:  cell,
				Trial: t,
				Seed:  TrialSeed(spec.BaseSeed, key, t),
			})
		}
	}

	// Dispatch units. Results land at precomputed indices, so any order
	// yields the same artifact. The jobs that share a trial seed (one trial
	// of the cells that differ only in shared axes) form one unit, in cell
	// order, and one worker runs a unit back to back: it computes the
	// seed's warm-up once and forks it for every cell while the other
	// workers warm other seeds, instead of blocking on a warm-up another
	// worker is computing. Without shared axes every seed is unique, so
	// each job is its own unit in storage (cell-major) order.
	var units [][]int
	unitOf := make(map[uint64]int, len(jobs))
	for i, job := range jobs {
		u, ok := unitOf[job.Seed]
		if !ok {
			u = len(units)
			unitOf[job.Seed] = u
			units = append(units, nil)
		}
		units[u] = append(units[u], i)
	}

	// Wall-clock dispatcher telemetry. All instruments are nil when cfg.Ops
	// is, and every method is nil-safe, so the uninstrumented path pays only
	// nil checks. Worker/in-flight gauges use Add (not Set) so concurrent
	// Runs sharing one registry compose.
	queueWait := cfg.Ops.Histogram("meecc_exp_queue_wait_seconds", "Wall time a dispatched trial waited for a worker.", nil)
	trialSeconds := cfg.Ops.Histogram("meecc_exp_trial_seconds", "Wall time of trial executions in the worker pool.", nil)
	busySeconds := cfg.Ops.Gauge("meecc_exp_worker_busy_seconds", "Cumulative wall time workers spent executing trials.")
	workersGauge := cfg.Ops.Gauge("meecc_exp_workers", "Workers currently serving trial pools.")
	inflight := cfg.Ops.Gauge("meecc_exp_trials_inflight", "Trials executing right now.")
	workersGauge.Add(float64(workers))
	defer workersGauge.Add(-float64(workers))

	start := time.Now()
	// Every trial is recorded as skipped until a worker runs it, so trials
	// a cancel cut off count as failures in the aggregates instead of being
	// silently averaged away.
	results := make([]TrialResult, len(jobs))
	for i, job := range jobs {
		results[i] = TrialResult{
			Cell:    job.Cell.Index,
			CellKey: job.Cell.Key(),
			Trial:   job.Trial,
			Seed:    job.Seed,
			Err:     SkippedErr,
		}
	}
	// A nil channel never fires, so without a Context the stop checks
	// cost nothing.
	var ctxDone <-chan struct{}
	if cfg.Context != nil {
		ctxDone = cfg.Context.Done()
	}
	stopped := func() bool {
		select {
		case <-ctxDone:
			return true
		default:
			return false
		}
	}
	// Each dispatch carries its send timestamp so the receiving worker can
	// record how long the unit sat in the channel waiting for a free slot.
	type dispatchItem struct {
		unit []int // job indices, in the order the worker runs them
		at   time.Time
	}
	unitCh := make(chan dispatchItem)
	var wg sync.WaitGroup

	var mu sync.Mutex // guards done/cellDone and serializes OnProgress
	done := 0
	cellsDone := 0
	cellRemaining := make([]int, len(cells))
	for i := range cellRemaining {
		cellRemaining[i] = spec.Trials
	}

	// runJob runs one trial, records its result over the skipped record,
	// and reports progress; wait is how long the trial waited for a worker.
	runJob := func(i int, wait float64) {
		job := jobs[i]
		tr := results[i]
		queueWait.Observe(wait)
		execStart := time.Now()
		inflight.Add(1)
		m, snap, err := runTrial(runner, job)
		inflight.Add(-1)
		trialSeconds.ObserveSince(execStart)
		busySeconds.Add(time.Since(execStart).Seconds())
		if err != nil {
			tr.Err = err.Error()
		} else {
			tr.Err, tr.Metrics, tr.Obs = "", m, snap
		}
		results[i] = tr

		mu.Lock()
		done++
		cellRemaining[job.Cell.Index]--
		if cellRemaining[job.Cell.Index] == 0 {
			cellsDone++
		}
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Done:      done,
				Total:     len(jobs),
				CellsDone: cellsDone,
				Cells:     len(cells),
				Elapsed:   time.Since(start),
			})
		}
		mu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range unitCh {
				// Only a unit's first trial waited for a worker. A stop
				// cuts the unit short before a later trial, and the trials
				// after the cut stay skipped.
				runJob(item.unit[0], time.Since(item.at).Seconds())
				for _, i := range item.unit[1:] {
					if stopped() {
						break
					}
					runJob(i, 0)
				}
			}
		}()
	}
dispatch:
	for _, unit := range units {
		// Poll the stop signal first: select picks among ready cases at
		// random, so without this a fired cancel could keep losing coin
		// flips against ready workers and dispatch units anyway.
		if stopped() {
			break
		}
		select {
		case <-ctxDone:
			break dispatch
		case unitCh <- dispatchItem{unit: unit, at: time.Now()}:
		}
	}
	close(unitCh)
	wg.Wait()

	report := &Report{
		Spec:     spec,
		Trials:   results,
		Cells:    aggregate(cells, results, spec.Trials),
		Workers:  workers,
		WallTime: time.Since(start),
		Partial:  done < len(jobs),
	}
	return report, nil
}

// runTrial invokes the runner with a panic guard: a panicking trial is one
// failed trial in the artifact, not a crashed batch. Panics that crossed a
// simulation Run boundary arrive as *sim.PanicError carrying the faulting
// actor's name and its original stack; report those instead of this
// goroutine's stack, which would only show the engine's resume plumbing.
func runTrial(runner Runner, job Job) (m Metrics, snap *obs.Snapshot, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if pe := (*sim.PanicError)(nil); errors.As(toError(r), &pe) {
			err = fmt.Errorf("exp: trial panicked in actor %q: %v\n%s", pe.Actor, pe.Value, pe.Stack)
			return
		}
		err = fmt.Errorf("exp: trial panicked: %v\n%s", r, debug.Stack())
	}()
	return runner(job)
}

// toError adapts a recovered value for errors.As without losing non-error
// panic values.
func toError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("%v", r)
}

// aggregate folds the (already cell-major-ordered) trial results into
// per-cell statistics.
func aggregate(cells []Cell, results []TrialResult, trials int) []CellResult {
	out := make([]CellResult, len(cells))
	for ci, cell := range cells {
		cr := CellResult{Cell: cell, Key: cell.Key(), Trials: trials, Stats: map[string]trace.Stat{}}
		samples := map[string][]float64{}
		var names []string
		for t := 0; t < trials; t++ {
			tr := results[ci*trials+t]
			if tr.Err != "" {
				cr.Failures++
				continue
			}
			for name, v := range tr.Metrics {
				if _, ok := samples[name]; !ok {
					names = append(names, name)
				}
				samples[name] = append(samples[name], v)
			}
		}
		for _, name := range names {
			cr.Stats[name] = trace.NewStat(samples[name])
		}
		out[ci] = cr
	}
	return out
}

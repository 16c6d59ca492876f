package main

import (
	"fmt"
	"math"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
)

// harness is a workload that runs one spec after another through the
// experiment harness, the path `meecc batch` and the figure regenerators
// take. An op is one trial; a rep is one spec run to its artifact.
type harness struct {
	// spec builds the rep spec. Every rep runs it with its own base seed
	// (see repSeed).
	spec func(small bool) *exp.Spec
	// sim reads the simulated headline numbers off rep 0's report.
	sim func(*exp.Report) (kbps, errorRate float64)
	// shape checks the paper's published shape on rep 0's report.
	shape func(*exp.Report) []string
}

var windows = []string{"5000", "7500", "10000", "15000", "20000", "25000", "30000"}

// fresh: every trial boots a machine and runs calibration, Algorithm 1 and
// monitor discovery before it transmits; the warm cache is never used. The
// untraced pass runs each trial in one piece (core.RunChannel); the traced
// pass warms and then forks once per trial, to time the two phases apart.
var fresh = harness{
	spec: func(small bool) *exp.Spec {
		return &exp.Spec{
			Name: "fresh", Study: "channel", Trials: pick(small, 4, 48),
			Params: map[string]string{"bits": "64", "pattern": "random"},
			Axes:   []exp.Axis{{Name: "window", Values: []string{"15000"}}},
		}
	},
	sim: cellSim("window=15000"),
}

// sweep: the paired Fig 7 grid. Warm-up runs once per seed and is forked
// for each of the seven windows, so fork and transmission on the epoch
// kernel dominate; 24 seeds per rep fill the harness's 16-entry warm cache,
// which makes this the memory-heavy workload.
var sweep = harness{
	spec: func(small bool) *exp.Spec {
		return &exp.Spec{
			Name: "sweep", Study: "channel", Trials: pick(small, 4, 24),
			Params:     map[string]string{"bits": "256", "pattern": "random"},
			Axes:       []exp.Axis{{Name: "window", Values: windows}},
			SharedAxes: []string{"window"},
		}
	},
	sim:   cellSim("window=15000"),
	shape: fig7Shape,
}

// chaos: fault campaigns run on the general goroutine engine with the
// resilient ARQ session, bypassing warm forking and, except for the static
// arm of intensity-0 trials, the epoch kernel. Intensities stop at 2: at 4,
// migration trials take 0.2-1.9 s and decide op_ref_ms_p90 from a few dozen
// samples a run, and from 6 up a few seeds draw 2-8 s trials, so which
// seeds a run drew would decide its numbers.
var chaos = harness{
	spec: func(small bool) *exp.Spec {
		faults, intensities := []string{"migration", "meeflush"}, []string{"0", "2"}
		if small {
			faults, intensities = faults[:1], intensities[1:2]
		}
		return &exp.Spec{
			Name: "chaos", Study: "chaos", Trials: 1,
			Params: map[string]string{"payload": "8"},
			Axes:   []exp.Axis{{Name: "faults", Values: faults}, {Name: "intensity", Values: intensities}},
		}
	},
	sim: func(r *exp.Report) (float64, float64) {
		return trialMean(r, "adaptive_goodput_kbps"), trialMean(r, "static_ber")
	},
}

func pick(small bool, smallN, fullN int) int {
	if small {
		return smallN
	}
	return fullN
}

// repSeed is rep's base seed. Rep 1 repeats rep 0's spec, so every pass
// checks that identical specs give identical artifacts; every later rep gets
// a fresh seed, so a longer run covers more sampled machines.
func repSeed(seed uint64, rep int) uint64 {
	if rep > 0 {
		rep--
	}
	return exp.TrialSeed(seed, "bench-rep", rep)
}

type harnessInst struct {
	h    harness
	opt  options
	tr   *tracer
	rep0 *exp.Report
}

func (h harness) setup(opt options, tr *tracer) (instance, error) {
	in := &harnessInst{h: h, opt: opt, tr: tr}
	if opt.small {
		return in, nil // nothing times a small pass's ops
	}
	// The warm-up op is one untraced trial of the first cell.
	spec := h.spec(opt.small)
	spec.Name += "-warmup"
	spec.BaseSeed, spec.Trials = warmupSeed, 1
	for i := range spec.Axes {
		spec.Axes[i].Values = spec.Axes[i].Values[:1]
	}
	if _, err := exp.RunSpec(spec, exp.Config{Workers: workers}); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *harnessInst) pass(p *passResult, deadline time.Time) error {
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		spec := in.h.spec(in.opt.small)
		spec.BaseSeed = repSeed(in.opt.seed, rep)
		r, err := in.runRep(spec, p)
		if err != nil {
			return err
		}
		art, err := in.marshal(r, p)
		if err != nil {
			return err
		}
		p.outputs[fmt.Sprintf("rep%d", rep)] = sha(art)
		if rep == 0 {
			in.rep0 = r
		}
	}
	if in.tr != nil {
		p.warm.Computes += in.tr.warms.Load()
		sc, err := in.tr.scrape()
		if err != nil {
			return err
		}
		p.scrape = sc
	}
	return nil
}

// runRep runs one rep: untraced through the study's own runner, traced
// through the tracer's, timing every trial either way.
func (in *harnessInst) runRep(spec *exp.Spec, p *passResult) (*exp.Report, error) {
	cfg := exp.Config{Workers: workers}
	var runner exp.Runner
	var warm *core.WarmCache
	var err error
	if in.tr == nil {
		runner, err = exp.RunnerFor(spec.Study)
	} else {
		warm = core.NewWarmCache(0) // one per run, as exp.RunnerFor gives
		runner, err = in.tr.runner(spec.Study, warm)
		cfg.Ops = in.tr.reg
	}
	if err != nil {
		return nil, err
	}
	r, err := exp.Run(spec, timedRunner(runner, p), cfg)
	if err != nil {
		return nil, err
	}
	if warm != nil {
		st := warm.Stats()
		p.warm.Computes += st.Computes
	}
	p.executorSeconds += r.WallTime.Seconds() * float64(r.Workers)
	for _, tr := range r.Trials {
		p.attempted++
		switch {
		case tr.Err == "":
		case simulatedOutcome(tr.Err):
			p.simSetupFailures++
		default:
			p.failed++
			p.check(false, "trial %s/%d failed: %s", tr.CellKey, tr.Trial, tr.Err)
		}
	}
	return r, nil
}

// marshal renders the rep's artifact, timing the encode.
func (in *harnessInst) marshal(r *exp.Report, p *passResult) ([]byte, error) {
	start := time.Now()
	art, err := exp.MarshalArtifact(r.Artifact())
	p.marshalMS = append(p.marshalMS, ms(time.Since(start)))
	return art, err
}

// timedRunner records every trial's latency as one op, then lets the
// executor sample the reference loop.
func timedRunner(r exp.Runner, p *passResult) exp.Runner {
	return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
		start := time.Now()
		m, snap, err := r(j)
		p.op(start)
		p.sample()
		return m, snap, err
	}
}

func (in *harnessInst) verify(p *passResult) {
	p.check(p.outputs["rep0"] == p.outputs["rep1"], "rep 1 repeats rep 0's spec but its artifact differs")
	p.simKBps, p.simErrorRate = in.h.sim(in.rep0)
	if in.h.shape != nil {
		for _, msg := range in.h.shape(in.rep0) {
			p.check(false, "%s", msg)
		}
	}
}

func (in *harnessInst) close() error { return nil }

// cellSim reads the mean bit rate and error rate of one cell.
func cellSim(key string) func(*exp.Report) (float64, float64) {
	return func(r *exp.Report) (float64, float64) {
		c := r.Cell(key)
		return c.Stat("kbps").Mean, c.Stat("error_rate").Mean
	}
}

// trialMean averages a metric over the report's successful trials.
func trialMean(r *exp.Report, metric string) float64 {
	var xs []float64
	for _, tr := range r.Trials {
		if v, ok := tr.Metrics[metric]; ok && tr.Err == "" {
			xs = append(xs, v)
		}
	}
	return ratio(sum(xs), float64(len(xs)))
}

// fig7Shape checks the paper's Fig 7 shape: about 35 KBps at under 5 %
// error at a 15000-cycle window, the error knee between 7500 and 10000
// cycles, and the MEE cache's 8-way eviction sets.
func fig7Shape(r *exp.Report) []string {
	var bad []string
	mean := func(window, metric string) float64 { return r.Cell("window=" + window).Stat(metric).Mean }
	if e := mean("15000", "error_rate"); e < 0.005 || e > 0.05 {
		bad = append(bad, fmt.Sprintf("error rate %.4f at a 15000-cycle window is outside [0.005, 0.05]", e))
	}
	if e75, e10 := mean("7500", "error_rate"), mean("10000", "error_rate"); e75 < 5*e10 {
		bad = append(bad, fmt.Sprintf("no error knee: %.4f at 7500 cycles is under 5 × %.4f at 10000", e75, e10))
	}
	if k := mean("15000", "kbps"); math.Abs(k-100.0/3) > 0.1 {
		bad = append(bad, fmt.Sprintf("bit rate %.3f KBps at a 15000-cycle window, want 33.33 ± 0.1", k))
	}
	for _, c := range r.Cells {
		if n := c.Stat("eviction_set").Mean; n != 8 {
			bad = append(bad, fmt.Sprintf("mean eviction-set size %g in %s, want 8", n, c.Key))
		}
	}
	return bad
}

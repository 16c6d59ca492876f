package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"meecc/internal/core"
	"meecc/internal/enclave"
	"meecc/internal/obs"
	"meecc/internal/obs/ops"
	"meecc/internal/platform"
)

// setupFunc sets a workload up: it prepares an instance ready for its first
// timed op, including one untimed warm-up op unless opt.small. tr is nil for
// an untraced instance.
type setupFunc func(opt options, tr *tracer) (instance, error)

// instance is one set-up workload.
type instance interface {
	// pass runs ops until the deadline, and at least the workload's
	// minimum, recording them in p.
	pass(p *passResult, deadline time.Time) error
	// verify runs the checks that follow the timed section.
	verify(p *passResult)
	// close releases everything setup acquired and reports leaks.
	close() error
}

var workloads = map[string]setupFunc{
	"fresh":  fresh.setup,
	"sweep":  sweep.setup,
	"chaos":  chaos.setup,
	"served": setupServed,
}

// workers bounds each workload's trial executors: the reference machine has
// two cores, and more executors than cores would only measure contention.
const workers = 2

// warmupSeed seeds the untimed warm-up op of every set-up; no pass uses it.
const warmupSeed = 1

// throughputSegments is how many equal-count segments of completed ops
// ops_per_ref_s takes its median over, at least.
const throughputSegments = 20

// passResult is what one timed pass did.
type passResult struct {
	start     time.Time
	mu        sync.Mutex
	opMS      []float64 // latency of every completed op
	doneS     []float64 // completion of every completed op, seconds into the pass
	attempted int
	failed    int
	outputs   map[string]string // output name → sha256 of its bytes
	checks    []string

	simKBps, simErrorRate float64
	simSetupFailures      int // trials whose simulated attack failed its set-up
	marshalMS             []float64
	ref                   refProbe  // the executors' reference samples
	host                  hostSpeed // ref, in time order, once the pass has ended
	rssMB                 []float64 // the resident set, read beside each reference sample
	warm                  core.WarmCacheStats
	scrape                *ops.Scrape // traced passes: the pass's wall-clock telemetry
	executorSeconds       float64     // traced passes: trial-executor capacity used

	rt runtimeSample
}

func newPass() *passResult { return &passResult{start: time.Now(), outputs: map[string]string{}} }

// op records one op that began at start and completed now.
func (p *passResult) op(start time.Time) {
	now := time.Now()
	p.mu.Lock()
	p.opMS = append(p.opMS, ms(now.Sub(start)))
	p.doneS = append(p.doneS, now.Sub(p.start).Seconds())
	p.mu.Unlock()
}

// sample is called by an executor when it finishes an op: when a
// reference sample is due it takes one, and reads the resident set beside it.
func (p *passResult) sample() {
	if !p.ref.after() {
		return
	}
	if mb, err := residentMB(); err == nil {
		p.mu.Lock()
		p.rssMB = append(p.rssMB, mb)
		p.mu.Unlock()
	}
}

// check records a failed correctness check unless ok.
func (p *passResult) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	p.mu.Lock()
	p.checks = append(p.checks, fmt.Sprintf(format, args...))
	p.mu.Unlock()
}

// throughput is the pass's ops per second and per ref-s (see refclock.go):
// the medians, over at least throughputSegments consecutive segments
// holding equal numbers of ops, of the segment's ops ÷ its duration. The
// median keeps a burst of host noise, or one rare long op, from deciding a
// whole run.
func (p *passResult) throughput() (perS, perRefS float64) {
	done := slices.Clone(p.doneS)
	slices.Sort(done)
	k := max(1, len(done)/throughputSegments)
	var wall, ref []float64
	prev := 0.0
	for i := k; i <= len(done); i += k {
		if t := done[i-1]; t > prev {
			r := float64(k) / (t - prev)
			wall = append(wall, r)
			ref = append(ref, r*p.host.around(prev, t))
			prev = t
		}
	}
	return percentile(wall, 50), percentile(ref, 50)
}

// opRefMS is every op's latency in ref-ms: its wall time divided by the
// wall time of one ref-ms around it.
func (p *passResult) opRefMS() []float64 {
	out := make([]float64, len(p.opMS))
	for i, d := range p.opMS {
		end := p.doneS[i]
		out[i] = d / p.host.around(end-d/1000, end)
	}
	return out
}

// runtimeSample is the Go runtime's cumulative accounting at one instant.
type runtimeSample struct {
	alloc      uint64 // bytes allocated
	gcs        uint32 // completed GC cycles
	gcCPU, cpu float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{alloc: ms.TotalAlloc, gcs: ms.NumGC, gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64()}
}

func (s runtimeSample) since(before runtimeSample) runtimeSample {
	return runtimeSample{
		alloc: s.alloc - before.alloc,
		gcs:   s.gcs - before.gcs,
		gcCPU: s.gcCPU - before.gcCPU,
		cpu:   s.cpu - before.cpu,
	}
}

// run executes one invocation: set-up, the untraced pass that gives the
// end-to-end metrics and, for a traced run, the traced pass, the standalone
// layer loops and the donor passes that give the per-layer ones.
func run(opt options) (*result, error) {
	setup, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	// A set-up is one short operation, so set-up is timed several times
	// before the timed section and as many times after it, and setup_s is the
	// median, in ref-s: spread over the run, it averages the host's drift as
	// the timed section does. Traced and small runs set up once.
	n := 9
	if opt.trace || opt.small {
		n = 1
	}
	setups, inst, err := setUp(setup, opt, n)
	if err != nil {
		return nil, err
	}
	budget := opt.seconds
	if opt.trace {
		budget /= 2 // the traced pass gets the other half
	}
	plain, err := timed(inst, budget)
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: %w", opt.workload, cerr)
	}
	if err != nil {
		return nil, err
	}
	if n > 1 {
		after, last, err := setUp(setup, opt, n)
		if err == nil {
			err = last.close()
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, after...)
	}
	res := &result{}
	res.absorb("", plain)
	res.endToEnd = endToEndMetrics(setups, plain, res)
	if opt.trace {
		if err := traceRun(setup, opt, plain, res); err != nil {
			return nil, err
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("peak resident set over the whole run: %.4g MB", peakRSSMB()))
	return res, nil
}

// setupTime is one set-up's wall time, and its time in ref-s: the wall
// time divided by the mean of a reference sample taken just before it and
// one taken just after.
type setupTime struct{ wallS, refS float64 }

// setUp sets the workload up untraced n times, closing all but the last
// instance, and returns the set-up times with that instance.
func setUp(setup setupFunc, opt options, n int) ([]setupTime, instance, error) {
	var times []setupTime
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		before := refMSPer()
		start := time.Now()
		in, err := setup(opt, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", opt.workload, err)
		}
		wall := time.Since(start).Seconds()
		times = append(times, setupTime{wall, wall / ((before + refMSPer()) / 2)})
		inst = in
	}
	return times, inst, nil
}

// timed runs one pass with the runtime's accounting around it, then its
// after-timing checks.
func timed(inst instance, budget time.Duration) (*passResult, error) {
	runtime.GC()
	before := sampleRuntime()
	p := newPass()
	if err := inst.pass(p, p.start.Add(budget)); err != nil {
		return nil, err
	}
	p.rt = sampleRuntime().since(before)
	p.sample() // the only sample of a pass too short to have taken one
	p.host = p.ref.speed(p.start)
	inst.verify(p)
	return p, nil
}

// absorb adds a pass's counts and checks to the result.
func (r *result) absorb(prefix string, p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	for _, c := range p.checks {
		r.checks = append(r.checks, prefix+c)
	}
}

func endToEndMetrics(setups []setupTime, p *passResult, res *result) map[string]float64 {
	var wallS, refS []float64
	for _, s := range setups {
		wallS = append(wallS, s.wallS)
		refS = append(refS, s.refS)
	}
	n := len(p.opMS)
	tail, _ := tailPercentile(n, 10)
	perS, perRefS := p.throughput()
	refMS := p.opRefMS()
	res.notes = append(res.notes,
		fmt.Sprintf("op latency over n=%d ops: %d beyond p90; the highest percentile with 10 beyond is p%d", n, n-rank(n, 90), tail),
		fmt.Sprintf("wall clock: %.4g ops/s, op p50 %.4g ms, p90 %.4g ms; one ref-ms took %.4g ms (median of %d samples)",
			perS, percentile(p.opMS, 50), percentile(p.opMS, 90), p.host.median(), len(p.host.at)),
		fmt.Sprintf("set-up: median %.4g s of wall time over %d set-ups", percentile(wallS, 50), len(setups)),
		fmt.Sprintf("resident set: p90 over %d samples", len(p.rssMB)),
		fmt.Sprintf("simulated: %.4g KBps at error rate %.4g; %d trials failed their simulated set-up", p.simKBps, p.simErrorRate, p.simSetupFailures))
	return map[string]float64{
		"setup_s":         percentile(refS, 50),
		"ops_per_ref_s":   perRefS,
		"op_ref_ms_p50":   percentile(refMS, 50),
		"op_ref_ms_p90":   percentile(refMS, 90),
		"alloc_mb_per_op": float64(p.rt.alloc) / 1e6 / float64(p.attempted),
		"rss_mb_p90":      percentile(p.rssMB, 90),
	}
}

// donors are the workloads whose small traced passes time the layers a
// traced workload does not reach itself: chaos covers the general-engine
// chaos trial; served covers warm-up and transmission (its server runs the
// traced runner), the service, the journal, the snapshot store and the
// warm-state disk tier.
var donors = []string{"chaos", "served"}

// traceRun runs the traced pass on a fresh instance, checks its outputs
// against the untraced pass, and fills res.perLayer and the Chrome trace.
func traceRun(setup setupFunc, opt options, plain *passResult, res *result) error {
	tr := newTracer()
	tp, err := tracedPass(setup, opt, tr, opt.seconds/2)
	if err != nil {
		return fmt.Errorf("%s traced: %w", opt.workload, err)
	}
	res.absorb("traced: ", tp)
	shared := 0
	for name, sum := range tp.outputs {
		if ps, ok := plain.outputs[name]; ok {
			shared++
			if ps != sum {
				res.checks = append(res.checks, fmt.Sprintf("traced output %s differs from the untraced one", name))
			}
		}
	}
	if shared == 0 {
		res.checks = append(res.checks, "the traced and untraced passes share no output to compare")
	}

	m := layerMetrics(tp, tr)
	m["runtime.gc_cpu_fraction"] = ratio(plain.rt.gcCPU, plain.rt.cpu)
	m["runtime.gc_cycles_per_op"] = ratio(float64(plain.rt.gcs), float64(plain.attempted))
	_, traced := tp.throughput()
	_, untraced := plain.throughput()
	m["trace.overhead_pct"] = 100 * (1 - traced/untraced)
	m["host.ms_per_ref_ms"] = plain.host.median()
	loops, err := layerLoops(opt)
	if err != nil {
		return err
	}
	for name, v := range loops {
		m[name] = v
	}
	dropped := tr.rec.Dropped()
	for _, name := range donors {
		if name == opt.workload {
			continue
		}
		dm, ddropped, err := donorLayers(name, opt, res)
		if err != nil {
			return err
		}
		dropped += ddropped
		for _, d := range perLayer {
			if d.unit == "ms" && m[d.name] == 0 {
				m[d.name] = dm[d.name]
			}
		}
	}
	m["trace.spans_dropped"] = float64(dropped)
	res.perLayer = m

	res.tracePath = filepath.Join(opt.dir, fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	var buf bytes.Buffer
	if err := ops.WriteChromeTrace(&buf, tr.rec.Spans("")); err != nil {
		return err
	}
	if _, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		res.checks = append(res.checks, fmt.Sprintf("chrome trace: %v", err))
	}
	return os.WriteFile(res.tracePath, buf.Bytes(), 0o644)
}

// donorLayers runs a small traced pass of another workload and returns its
// per-layer metrics and dropped-span count.
func donorLayers(name string, opt options, res *result) (map[string]float64, uint64, error) {
	opt.workload, opt.small = name, true
	tr := newTracer()
	p, err := tracedPass(workloads[name], opt, tr, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("donor %s: %w", name, err)
	}
	for _, c := range p.checks {
		res.checks = append(res.checks, fmt.Sprintf("donor %s: %s", name, c))
	}
	return layerMetrics(p, tr), tr.rec.Dropped(), nil
}

// tracedPass sets up one instance recording into tr, runs its timed pass
// for budget and closes it.
func tracedPass(setup setupFunc, opt options, tr *tracer, budget time.Duration) (*passResult, error) {
	inst, err := setup(opt, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	p, err := timed(inst, budget)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return p, err
}

// layerMetrics derives the per-layer metrics of one traced pass from its
// spans, its wall-clock telemetry and its counts. A layer the pass does not
// reach reads 0 here.
func layerMetrics(p *passResult, tr *tracer) map[string]float64 {
	d := tr.durations()
	sc := p.scrape
	meanMS := func(family string) float64 {
		return 1e3 * ratio(sc.Value(family+"_sum"), sc.Value(family+"_count"))
	}
	w := p.warm
	executed := sc.Value("meecc_serve_trials_executed_total")
	memoized := sc.Value("meecc_serve_trials_memoized_total")
	return map[string]float64{
		"core.warm_ms_p50":            percentile(d["core.warm"], 50),
		"core.transmit_ms_p50":        percentile(d["core.transmit"], 50),
		"core.chaos_trial_ms_p50":     percentile(d["core.chaos_trial"], 50),
		"core.warm_share":             ratio(sum(d["core.warm"]), sum(d["exp.trial"])),
		"core.warms_per_trial":        ratio(float64(w.Computes), float64(len(d["exp.trial"]))),
		"core.warm_computes":          float64(w.Computes),
		"core.warm_disk_loads":        float64(w.DiskLoads),
		"core.warm_disk_spills":       float64(w.DiskSpills),
		"core.warm_spills_per_warm":   ratio(float64(w.DiskSpills), float64(w.Computes+w.DiskLoads)),
		"core.warm_spill_ms_mean":     meanMS("meecc_warm_spill_seconds"),
		"core.warm_disk_load_ms_mean": meanMS("meecc_warm_disk_load_seconds"),
		"snapstore.put_mb":            sc.Value("meecc_snapstore_put_bytes_total") / 1e6,
		"snapstore.put_ms_mean":       meanMS("meecc_snapstore_put_seconds"),
		"snapstore.get_ms_mean":       meanMS("meecc_snapstore_get_seconds"),
		"snapstore.evictions":         sc.Value("meecc_snapstore_evictions_total"),
		"exp.queue_wait_ms_mean":      meanMS("meecc_exp_queue_wait_seconds"),
		"exp.worker_busy_ratio":       ratio(sc.Value("meecc_exp_worker_busy_seconds"), p.executorSeconds),
		"exp.marshal_ms":              percentile(p.marshalMS, 50),
		"serve.cold_ms_p50":           percentile(d["serve.cold"], 50),
		"serve.cold_ms_p90":           percentile(d["serve.cold"], 90),
		"serve.repeat_ms_p50":         percentile(d["serve.repeat"], 50),
		"serve.repeat_ms_p90":         percentile(d["serve.repeat"], 90),
		"serve.reuse_ms_p50":          percentile(d["serve.reuse"], 50),
		"serve.reuse_ms_p90":          percentile(d["serve.reuse"], 90),
		"serve.submit_ms_p50":         percentile(d["serve.submit"], 50),
		"serve.follow_ms_p50":         percentile(d["serve.follow"], 50),
		"serve.artifact_ms_p50":       percentile(d["serve.artifact"], 50),
		"serve.queue_wait_ms_mean":    meanMS("meecc_serve_queue_wait_seconds"),
		"serve.memo_hit_ratio":        ratio(memoized, executed+memoized),
		"journal.appends":             sc.Value("meecc_journal_appends_total"),
		"journal.append_ms_mean":      meanMS("meecc_journal_append_seconds"),
		"journal.size_mb":             sc.Value("meecc_journal_size_bytes") / 1e6,
		"sim_kbps":                    p.simKBps,
		"sim_error_rate":              p.simErrorRate,
	}
}

// layerLoops times standalone loops of calls into the platform and the
// warm-state codec, which no workload isolates: boot, snapshot and fork of a
// platform that has run enclave traffic, and encode and decode of a real
// channel warm state.
func layerLoops(opt options) (map[string]float64, error) {
	n := 50
	if opt.small {
		n = 3
	}
	loop := func(f func()) []float64 {
		out := make([]float64, n)
		for i := range out {
			start := time.Now()
			f()
			out[i] = ms(time.Since(start))
		}
		return out
	}
	cfg := platform.DefaultConfig(opt.seed)
	allocBefore := sampleRuntime().alloc
	boot := loop(func() { platform.New(cfg).Close() })
	bootAlloc := float64(sampleRuntime().alloc-allocBefore) / float64(n)

	plat, err := trafficPlatform(cfg)
	if err != nil {
		return nil, err
	}
	var snap *platform.Snapshot
	snapshot := loop(func() { snap = plat.Snapshot() })
	plat.Close()
	fork := loop(func() { snap.Fork().Close() })

	ws, err := warmState(opt.seed)
	if err != nil {
		return nil, err
	}
	var blob []byte
	var encErr, decErr error
	encode := loop(func() { blob, encErr = ws.Encode() })
	if encErr != nil {
		return nil, encErr
	}
	decode := loop(func() { _, decErr = core.DecodeWarmState(blob) })
	if decErr != nil {
		return nil, decErr
	}
	heap, err := heapOf(func() (any, error) { return core.DecodeWarmState(blob) })
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"platform.boot_ms_p50":     percentile(boot, 50),
		"platform.boot_alloc_mb":   bootAlloc / 1e6,
		"platform.snapshot_ms_p50": percentile(snapshot, 50),
		"platform.fork_ms_p50":     percentile(fork, 50),
		"snapstore.encode_ms_p50":  percentile(encode, 50),
		"snapstore.decode_ms_p50":  percentile(decode, 50),
		"snapstore.blob_mb":        float64(len(blob)) / 1e6,
		"core.warm_state_heap_mb":  heap / 1e6,
	}, nil
}

// trafficPlatform boots a platform and runs an enclave thread that reads
// and writes across 64 enclave pages, so snapshots carry DRAM, MEE and cache
// state, not an empty machine.
func trafficPlatform(cfg platform.Config) (*platform.Platform, error) {
	p := platform.New(cfg)
	pr := p.NewProcess("traffic")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.SpawnThread("traffic", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		for i := 0; i < 4096; i++ {
			va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
	})
	p.Run(-1)
	return p, nil
}

// warmState warms a channel at the seed, trying the next seeds when the
// simulated set-up fails on that machine.
func warmState(seed uint64) (*core.ChannelWarmState, error) {
	var err error
	for i := uint64(0); i < 5; i++ {
		var ws *core.ChannelWarmState
		if ws, err = core.WarmChannel(core.DefaultChannelConfig(seed + i)); err == nil {
			return ws, nil
		}
	}
	return nil, fmt.Errorf("warming a channel state: %w", err)
}

// heapOf returns the in-use heap bytes that the value built by f holds.
func heapOf(f func() (any, error)) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := f()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return float64(int64(after.HeapInuse) - int64(before.HeapInuse)), nil
}

// simulatedOutcomes are the errors a channel trial returns when the
// simulated attack itself fails its set-up on the sampled machine (the spy
// finds no monitor line, Algorithm 1 overruns its budget). They are results
// of the model, recorded in the artifact like any other, not failed ops.
var simulatedOutcomes = []string{
	"monitor discovery failed",
	"overran its budget",
	"eviction set extraction failed",
	"no test address found",
	"spy never completed",
}

func simulatedOutcome(err string) bool {
	for _, s := range simulatedOutcomes {
		if strings.Contains(err, s) {
			return true
		}
	}
	return false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

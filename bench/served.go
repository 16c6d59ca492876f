package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/obs/ops"
	"meecc/internal/serve"
)

// The served workload is a closed loop: servedClients clients, each with its
// own serve.Client and at most one connection, against an in-process
// serve.Server on a loopback listener. An op is one request, from submit to
// artifact bytes. Each client runs rounds of three requests:
//
//   - cold: a new seed, windows {10000, 15000} × 2 trials with shared axes;
//   - repeat: the identical spec again, replayed from the trial memo;
//   - reuse, from round servedReuseLag on: window 20000 at the seed of
//     servedReuseLag rounds earlier — a memo miss whose warm state, evicted
//     from the 4-entry memory tier by then, faults back in from the snapshot
//     store.
//
// It is the only workload that reaches serve, the journal and the snapshot
// store, with writes (journal appends, warm spills) beside reads (memo
// replays, disk faults).
const (
	servedClients  = 2
	servedReuseLag = 3
	// servedMinRounds lets even the shortest pass reach a reuse request.
	servedMinRounds = servedReuseLag + 1
	// servedExecutors is the server's trial-executor capacity: Workers 1
	// per run × MaxConcurrent 2 runs.
	servedExecutors = 2
)

type servedInst struct {
	opt        options
	tr         *tracer
	goroutines int // before set-up, for the leak check
	dir        string
	srv        *serve.Server
	ts         *httptest.Server
	// cur is the pass under way, whose reference samples the server's
	// executors take between trials; nil outside a pass.
	cur atomic.Pointer[passResult]
}

// setupServed starts the server over a private temp dir (journal plus a
// 256 MiB snapshot store) and sends one untimed warm-up request.
func setupServed(opt options, tr *tracer) (instance, error) {
	in := &servedInst{opt: opt, tr: tr, goroutines: runtime.NumGoroutine()}
	dir, err := os.MkdirTemp(opt.dir, "served-")
	if err != nil {
		return nil, err
	}
	in.dir = dir
	cfg := serve.Config{
		Workers:       1,
		MaxConcurrent: 2,
		WarmCapacity:  4,
		JournalPath:   filepath.Join(dir, "journal"),
		StoreDir:      filepath.Join(dir, "store"),
		StoreMaxBytes: 256 << 20,
	}
	factory := exp.RunnerWithWarmCache
	if tr != nil {
		factory = tr.runner
	}
	cfg.RunnerFactory = func(study string, warm *core.WarmCache) (exp.Runner, error) {
		r, err := factory(study, warm)
		if err != nil {
			return nil, err
		}
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			m, snap, err := r(j)
			if p := in.cur.Load(); p != nil {
				p.sample()
			}
			return m, snap, err
		}, nil
	}
	if in.srv, err = serve.New(cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in.ts = httptest.NewServer(in.srv)
	if opt.small {
		return in, nil // nothing times a small pass's ops
	}
	cl, done := in.client()
	_, err = in.request(cl, "warmup", "client-0", servedSpec("served-warmup", warmupSeed, "10000", "15000"))
	done()
	if err != nil {
		return nil, fmt.Errorf("warm-up request: %w (close: %v)", err, in.close())
	}
	return in, nil
}

// client returns a client limited to one connection and the func that
// closes its idle connection.
func (in *servedInst) client() (*serve.Client, func()) {
	tp := &http.Transport{MaxConnsPerHost: 1}
	return &serve.Client{BaseURL: in.ts.URL, HTTP: &http.Client{Transport: tp}}, tp.CloseIdleConnections
}

func (in *servedInst) pass(p *passResult, deadline time.Time) error {
	in.cur.Store(p)
	defer in.cur.Store(nil)
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.rounds(c, deadline, p)
		}()
	}
	wg.Wait()
	if in.tr != nil {
		p.executorSeconds = servedExecutors * time.Since(p.start).Seconds()
		sc, err := in.scrape()
		if err != nil {
			return err
		}
		p.scrape = sc
		p.warm = core.WarmCacheStats{
			Computes:   int64(sc.Value("meecc_warm_computes")),
			DiskLoads:  int64(sc.Value("meecc_warm_disk_loads")),
			DiskSpills: int64(sc.Value("meecc_warm_disk_spills")),
		}
	}
	return nil
}

// rounds is one client's closed loop.
func (in *servedInst) rounds(c int, deadline time.Time, p *passResult) {
	cl, done := in.client()
	defer done()
	for r := 0; r < servedMinRounds || time.Now().Before(deadline); r++ {
		cold := in.coldSpec(c, r)
		coldArt := in.op(p, cl, c, r, "cold", cold)
		repeatArt := in.op(p, cl, c, r, "repeat", cold)
		p.check(coldArt == nil || repeatArt == nil || bytes.Equal(coldArt, repeatArt),
			"client %d round %d: the repeated spec's artifact differs from the cold one", c, r)
		if r >= servedReuseLag {
			reuse := servedSpec(fmt.Sprintf("served-c%d-r%d-reuse", c, r), in.roundSeed(c, r-servedReuseLag), "20000")
			in.op(p, cl, c, r, "reuse", reuse)
		}
	}
}

func (in *servedInst) roundSeed(c, r int) uint64 {
	return exp.TrialSeed(in.opt.seed, fmt.Sprintf("served-client-%d", c), r)
}

func (in *servedInst) coldSpec(c, r int) []byte {
	return servedSpec(fmt.Sprintf("served-c%d-r%d", c, r), in.roundSeed(c, r), "10000", "15000")
}

func servedSpec(name string, seed uint64, windows ...string) []byte {
	b, err := json.Marshal(exp.Spec{
		Name: name, Study: "channel", BaseSeed: seed, Trials: 2,
		Params:     map[string]string{"bits": "64", "pattern": "random"},
		Axes:       []exp.Axis{{Name: "window", Values: windows}},
		SharedAxes: []string{"window"},
	})
	if err != nil {
		panic(err) // a spec of strings and numbers always marshals
	}
	return b
}

// op runs one timed request and records it.
func (in *servedInst) op(p *passResult, cl *serve.Client, c, r int, kind string, spec []byte) []byte {
	run, track := fmt.Sprintf("c%d/r%d/%s", c, r, kind), fmt.Sprintf("client-%d", c)
	start := time.Now()
	art, err := in.request(cl, run, track, spec)
	in.tr.span(run, track, "serve."+kind, start)
	if err == nil {
		p.op(start)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		p.checks = append(p.checks, fmt.Sprintf("%s: %v", run, err))
		return nil
	}
	p.outputs[run] = sha(art)
	return art
}

// request submits the spec, follows its events to the end, and fetches the
// artifact of a run that finished done.
func (in *servedInst) request(cl *serve.Client, run, track string, spec []byte) ([]byte, error) {
	start := time.Now()
	info, err := cl.Submit(spec)
	in.tr.span(run, track, "serve.submit", start)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	ev, err := cl.Follow(info, 0, func(serve.Event) {})
	in.tr.span(run, track, "serve.follow", start)
	if err != nil {
		return nil, err
	}
	if ev.Type != "done" {
		return nil, fmt.Errorf("run %s ended %s: %s", info.ID, ev.Type, ev.Error)
	}
	start = time.Now()
	art, err := cl.Artifact(info)
	in.tr.span(run, track, "serve.artifact", start)
	return art, err
}

// scrape reads the server's own GET /metrics.
func (in *servedInst) scrape() (*ops.Scrape, error) {
	resp, err := in.ts.Client().Get(in.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ops.ParseText(resp.Body)
}

// verify runs the first cold spec locally through exp.RunSpec and checks the
// served artifact against it byte for byte.
func (in *servedInst) verify(p *passResult) {
	spec, err := exp.ParseSpec(in.coldSpec(0, 0))
	if err != nil {
		p.check(false, "local spec: %v", err)
		return
	}
	r, err := exp.RunSpec(spec, exp.Config{Workers: workers})
	if err != nil {
		p.check(false, "local run: %v", err)
		return
	}
	start := time.Now()
	art, err := exp.MarshalArtifact(r.Artifact())
	p.marshalMS = append(p.marshalMS, ms(time.Since(start)))
	p.check(err == nil && sha(art) == p.outputs["c0/r0/cold"],
		"the served artifact of c0/r0/cold differs from the same spec run locally")
	p.simKBps, p.simErrorRate = cellSim("window=15000")(r)
}

// close drains the server with Shutdown, which checkpoints the journal,
// removes the temp dir, and fails if any goroutine set-up started is left.
func (in *servedInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.srv.Shutdown(ctx)
	in.ts.Close()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= in.goroutines {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("served: %d goroutines left after shutdown (%d before set-up)", n, in.goroutines)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

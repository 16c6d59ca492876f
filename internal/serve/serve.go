// Package serve exposes the experiment harness as a long-lived HTTP
// service: clients POST declarative exp specs, follow progress as a
// resumable NDJSON event stream, and fetch the finished versioned artifact.
// The service preserves the harness's determinism contract end to end — an
// artifact served over HTTP is byte-identical to what `meecc batch` writes
// locally for the same spec, at any worker count — and is built to survive
// operations: completed trials are memoized by cell content hash and
// journaled to a write-ahead log (a kill -9 mid-run loses nothing that
// committed; resubmitting the spec re-executes only the rest), admission is
// bounded (429 + Retry-After under overload), runs carry deadlines and can
// be cancelled, SIGTERM drains in-flight work up to a grace period, and warm
// channel state is spilled to and faulted from a snapstore.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/obs/ops"
	"meecc/internal/serve/journal"
	"meecc/internal/snapstore"
)

// errShutdown is the cancellation cause for runs cut off by Shutdown: they
// stay resumable (no terminal journal record).
var errShutdown = errors.New("serve: server shutting down")

// errClientCancel is the cancellation cause for DELETE /v1/runs/{id}.
var errClientCancel = errors.New("serve: run cancelled by client")

// maxBodyBytes bounds request bodies: a larger spec is rejected with 400.
const maxBodyBytes = 1 << 20

// Config shapes a Server. Request bodies are bounded at 1 MiB and the span
// ring behind GET /v1/runs/{id}/trace at ops.DefaultSpanCap; the service's
// counters are read through Stats and GET /metrics.
type Config struct {
	// Workers sizes each run's trial pool (<= 0 means GOMAXPROCS). Worker
	// count never changes artifacts, only wall time.
	Workers int
	// StoreDir, when non-empty, roots a snapstore for the warm-state disk
	// tier. Empty keeps warm state purely in memory.
	StoreDir string
	// StoreMaxBytes bounds the store (<= 0 means unbounded).
	StoreMaxBytes int64
	// WarmCapacity bounds the in-memory warm-state tier (<= 0 = default).
	WarmCapacity int
	// JournalPath, when non-empty, opens the write-ahead run journal there:
	// admitted specs and completed trials become durable, the memo table is
	// rebuilt on startup, and interrupted runs are resumable. Empty keeps
	// everything in process memory (it dies with the process).
	JournalPath string
	// MaxConcurrent bounds simultaneously executing runs (<= 0 means 2).
	MaxConcurrent int
	// MaxPending bounds the admitted-but-not-started run queue (<= 0 means
	// 16). A full queue rejects submissions with 429 + Retry-After.
	MaxPending int
	// RunTimeout is each run's wall-clock deadline (<= 0 means none). A run
	// that exceeds it starts no new trial, drains, and fails; its
	// committed trials stay journaled.
	RunTimeout time.Duration
	// Ops is the wall-clock operational telemetry registry served at GET
	// /metrics. Nil means New creates a private one — telemetry is always on;
	// it is structurally incapable of touching artifacts (see internal/obs/ops).
	Ops *ops.Registry
	// Log, when non-nil, receives the service's structured logs (admissions,
	// run lifecycle, journal/store degradation). Nil discards them.
	Log *ops.Logger
	// RunnerFactory, when non-nil, overrides how study names resolve to
	// trial runners (tests inject synthetic studies; nil uses
	// exp.RunnerWithWarmCache). The returned runner must obey the exp.Runner
	// purity contract or every durability guarantee here is void.
	RunnerFactory func(study string, warm *core.WarmCache) (exp.Runner, error)
}

// Stats is a snapshot of the service's counters.
type Stats struct {
	RunsSubmitted    int64
	TrialsExecuted   int64
	TrialsMemoized   int64
	JournalReplayed  int64 // records replayed at startup
	RunsResumed      int64 // non-terminal runs found in the journal
	RejectedOverload int64 // submissions bounced with 429
	JournalErrors    int64 // failed journal appends (durability degraded)
	Warm             core.WarmCacheStats
}

// Server is the HTTP handler. Create with New; safe for concurrent use.
// Call Shutdown (or Close) to drain it — worker goroutines run until then.
type Server struct {
	cfg     Config
	warm    *core.WarmCache
	mux     *http.ServeMux
	journal *journal.Journal

	queue   chan *run     // admitted runs waiting for a slot
	quit    chan struct{} // closed when drain begins: workers stop picking
	done    chan struct{} // closed when shutdown completes: streams end
	workers sync.WaitGroup
	running sync.WaitGroup // runs currently executing

	// Wall-clock operational telemetry (tele.go): the /metrics registry,
	// structured logger, span ring, process start mark, and the hot-path
	// instrument handles resolved once at New.
	ops     *ops.Registry
	log     *ops.Logger
	spans   *ops.SpanRecorder
	started time.Time
	inst    serveInstruments

	// slotMu manages the trial span track pool: concurrent trials render on
	// distinct "slot-N" tracks, and finished trials recycle their slot so the
	// trace stays as narrow as the realized parallelism.
	slotMu   sync.Mutex
	slotFree []int
	slotNext int

	mu       sync.Mutex
	draining bool
	pending  int // runs sitting in queue (reserves channel capacity)
	runs     map[string]*run
	order    []string // insertion order, for listing
	subs     map[string]int
	memo     map[string]memoTrial
	stats    Stats
}

// memoTrial is one completed trial's result, keyed by the cell memo key and
// trial index. Results are deterministic, so replaying a stored value is
// indistinguishable from re-executing the trial.
type memoTrial struct {
	metrics exp.Metrics
	snap    *obs.Snapshot
	err     string
}

// New builds a server, opening the warm-state store and replaying the
// journal when configured, and starts its run workers.
func New(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 16
	}
	warm := core.NewWarmCache(cfg.WarmCapacity)
	var store *snapstore.Store
	if cfg.StoreDir != "" {
		st, err := snapstore.Open(cfg.StoreDir, cfg.StoreMaxBytes)
		if err != nil {
			return nil, err
		}
		store = st
		warm.AttachStore(store)
	}
	if cfg.Ops == nil {
		cfg.Ops = ops.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		warm:    warm,
		queue:   make(chan *run, cfg.MaxPending),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		runs:    map[string]*run{},
		subs:    map[string]int{},
		memo:    map[string]memoTrial{},
		ops:     cfg.Ops,
		log:     cfg.Log,
		spans:   ops.NewSpanRecorder(ops.DefaultSpanCap),
		started: time.Now(),
	}
	s.registerOps()
	warm.SetOps(s.ops)
	if store != nil {
		store.SetOps(s.ops, s.log)
	}
	if cfg.JournalPath != "" {
		jn, recs, err := journal.Open(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		s.journal = jn
		jn.SetOps(s.ops)
		if healed := jn.HealedBytes(); healed > 0 {
			s.log.Warn("journal torn tail truncated", "path", cfg.JournalPath, "bytes", healed)
		}
		s.log.Info("journal replayed", "path", cfg.JournalPath, "records", jn.Replayed())
		s.replay(recs)
	}
	s.mux = http.NewServeMux()
	s.handle("POST /v1/runs", "submit", s.handleSubmit)
	s.handle("GET /v1/runs", "list", s.handleList)
	s.handle("GET /v1/runs/{id}", "status", s.handleStatus)
	s.handle("DELETE /v1/runs/{id}", "cancel", s.handleCancel)
	s.handle("GET /v1/runs/{id}/events", "events", s.handleEvents)
	s.handle("GET /v1/runs/{id}/artifact", "artifact", s.handleArtifact)
	s.handle("GET /v1/runs/{id}/trace", "trace", s.handleTrace)
	s.mux.Handle("GET /metrics", s.ops.Handler())
	s.handle("GET /healthz", "healthz", s.handleHealthz)
	s.handle("GET /readyz", "readyz", s.handleReadyz)
	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s, nil
}

// replay rebuilds the memo table and run registry from journal records. Runs
// with no terminal record were interrupted by a crash or drain: they come
// back in StateInterrupted, and because every trial they committed is in the
// memo, resubmitting the same spec re-executes only the remainder.
func (s *Server) replay(recs []journal.Record) {
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindRun:
			spec, err := exp.ParseSpec(rec.Spec)
			if err != nil {
				continue // a study this binary no longer knows; skip the run
			}
			ru := newRun(rec.RunID, spec, rec.SpecHash)
			s.runs[rec.RunID] = ru
			s.order = append(s.order, rec.RunID)
			// Rebuild the per-spec submission counter so new run ids never
			// collide with journaled ones.
			if i := strings.LastIndexByte(rec.RunID, '-'); i >= 0 {
				if n, err := strconv.Atoi(rec.RunID[i+1:]); err == nil && n > s.subs[rec.SpecHash] {
					s.subs[rec.SpecHash] = n
				}
			}
		case journal.KindTrial:
			v := memoTrial{metrics: rec.Metrics, err: rec.TrialErr}
			if len(rec.Obs) > 0 {
				snap, err := obs.DecodeSnapshot(rec.Obs)
				if err != nil {
					continue // snapshot schema skew: re-execute this trial
				}
				v.snap = snap
			}
			s.memo[rec.Key] = v
		case journal.KindEnd:
			ru := s.runs[rec.RunID]
			if ru == nil {
				continue
			}
			switch rec.Outcome {
			case "done":
				ru.restore(StateDone, rec.Artifact, "")
			case "cancelled":
				ru.restore(StateCancelled, rec.Artifact, "")
			default:
				ru.restore(StateFailed, nil, rec.ErrMsg)
			}
		case journal.KindCheckpoint:
			// Clean-shutdown marker; nothing to rebuild.
		}
	}
	for _, id := range s.order {
		ru := s.runs[id]
		if !ru.snapshotState().terminal() {
			ru.interrupted()
			s.stats.RunsResumed++
		}
	}
	s.stats.JournalReplayed = int64(len(recs))
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats returns the service counters. Counter reads are consistent with the
// runs that have finished; call after a run completes for exact totals.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Warm = s.warm.Stats()
	return st
}

// runnerFor resolves a study name through the configured factory.
func (s *Server) runnerFor(study string) (exp.Runner, error) {
	if s.cfg.RunnerFactory != nil {
		return s.cfg.RunnerFactory(study, s.warm)
	}
	return exp.RunnerWithWarmCache(study, s.warm)
}

// journalAppend writes a record to the journal when one is configured. An
// append failure degrades durability, not service: it is counted and the
// run proceeds in memory.
func (s *Server) journalAppend(rec journal.Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.mu.Lock()
		s.stats.JournalErrors++
		s.mu.Unlock()
		s.log.Warn("journal append failed; durability degraded", "run", rec.RunID, "err", err.Error())
	}
}

// handleSubmit accepts a spec, assigns a run id derived from the spec's
// content hash and a per-spec submission counter, journals the admission,
// and queues the run. Saturated queues reject with 429 + Retry-After; a
// draining server rejects with 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var raw json.RawMessage
	if err := json.NewDecoder(body).Decode(&raw); err != nil {
		httpError(w, http.StatusBadRequest, "reading spec: %v", err)
		return
	}
	spec, err := exp.ParseSpec(raw)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	if _, err := s.runnerFor(spec.Study); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// Canonical spec bytes: what the journal replays and the hash covers.
	canonical, err := json.Marshal(spec)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encoding spec: %v", err)
		return
	}
	hash := spec.Hash()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.ops.Counter("meecc_serve_runs_rejected_total", "Run submissions rejected.", "reason", "draining").Inc()
		s.log.Warn("submission rejected: draining", "study", spec.Study, "name", spec.Name)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.pending >= cap(s.queue) {
		s.stats.RejectedOverload++
		pending := s.pending
		s.mu.Unlock()
		s.ops.Counter("meecc_serve_runs_rejected_total", "Run submissions rejected.", "reason", "overload").Inc()
		s.log.Warn("submission rejected: queue full", "study", spec.Study, "name", spec.Name, "pending", pending)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "run queue is full (%d pending)", cap(s.queue))
		return
	}
	s.subs[hash]++
	id := fmt.Sprintf("%s-%d", hash[:12], s.subs[hash])
	ru := newRun(id, spec, hash)
	s.runs[id] = ru
	s.order = append(s.order, id)
	s.pending++
	s.stats.RunsSubmitted++
	queueDepth := s.pending
	s.mu.Unlock()
	s.inst.runsSubmitted.Inc()

	// Write-ahead: the admission is durable before the client hears 202.
	s.journalAppend(journal.Record{Kind: journal.KindRun, RunID: id, SpecHash: hash, Spec: canonical})
	s.queue <- ru // never blocks: pending < cap was checked under s.mu
	s.spans.Record(id, "run", "submit", reqStart, time.Since(reqStart))
	s.log.Info("run admitted", "run", id, "study", spec.Study, "name", spec.Name,
		"trials", spec.Trials, "queue_depth", queueDepth)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(ru.info())
}

// worker executes queued runs until drain begins.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case <-s.quit:
			return
		case ru := <-s.queue:
			s.mu.Lock()
			s.pending--
			s.mu.Unlock()
			s.execute(ru)
		}
	}
}

// execute runs the spec through the harness with the memoizing, journaling
// runner under a per-run cancellable context, emitting progress events and
// capturing the canonical artifact.
func (s *Server) execute(ru *run) {
	s.mu.Lock()
	if s.draining {
		// Shutdown will mark still-pending runs interrupted.
		s.mu.Unlock()
		return
	}
	s.running.Add(1)
	s.mu.Unlock()
	defer s.running.Done()

	base, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	ctx := context.Context(base)
	if s.cfg.RunTimeout > 0 {
		var stop context.CancelFunc
		ctx, stop = context.WithTimeout(base, s.cfg.RunTimeout)
		defer stop()
	}

	if !ru.start(cancel) {
		return // cancelled while queued
	}
	queueWait := time.Since(ru.queuedAt)
	s.inst.queueWait.Observe(queueWait.Seconds())
	s.spans.Record(ru.id, "run", "queued", ru.queuedAt, queueWait)
	s.log.Info("run started", "run", ru.id, "study", ru.spec.Study,
		"queue_wait_ms", queueWait.Milliseconds())
	s.inst.runsActive.Add(1)
	execStart := time.Now()
	defer func() {
		s.inst.runsActive.Add(-1)
		s.inst.runSeconds.ObserveSince(execStart)
		s.spans.Record(ru.id, "run", "execute", execStart, time.Since(execStart))
	}()
	runner, err := s.runnerFor(ru.spec.Study)
	if err != nil {
		s.end(ru, "failed", nil, 0, err)
		return
	}
	rep, err := exp.Run(ru.spec, s.memoize(ru, runner), exp.Config{
		Workers: s.cfg.Workers,
		Context: ctx,
		Ops:     s.ops,
		OnProgress: func(p exp.Progress) {
			ru.emit(Event{
				Type:      "progress",
				Done:      p.Done,
				Total:     p.Total,
				CellsDone: p.CellsDone,
				Cells:     p.Cells,
			})
		},
	})
	if err != nil {
		s.end(ru, "failed", nil, 0, err)
		return
	}
	if rep.Partial {
		cause := context.Cause(ctx)
		switch {
		case errors.Is(cause, errShutdown):
			// No terminal journal record: the run resumes after restart.
			ru.interrupted()
			s.finishedOps(ru, "interrupted", "")
		case errors.Is(cause, context.DeadlineExceeded):
			s.end(ru, "failed", nil, 0, fmt.Errorf("run exceeded its %s deadline", s.cfg.RunTimeout))
		default: // client cancel
			artifact, merr := s.marshalArtifact(ru, rep)
			if merr != nil {
				s.end(ru, "failed", nil, 0, merr)
				return
			}
			s.end(ru, "cancelled", artifact, 0, nil)
		}
		return
	}
	artifact, err := s.marshalArtifact(ru, rep)
	if err != nil {
		s.end(ru, "failed", nil, 0, err)
		return
	}
	s.end(ru, "done", artifact, rep.Failures(), nil)
}

// marshalArtifact renders the report's canonical artifact under a recorded
// "artifact" span.
func (s *Server) marshalArtifact(ru *run, rep *exp.Report) ([]byte, error) {
	start := time.Now()
	artifact, err := exp.MarshalArtifact(rep.Artifact())
	s.spans.Record(ru.id, "run", "artifact", start, time.Since(start))
	return artifact, err
}

// finishedOps records a run's terminal outcome in the wall-clock telemetry:
// the outcome counter and a structured log line with the run's per-run
// execute/memo split.
func (s *Server) finishedOps(ru *run, outcome, errMsg string) {
	s.ops.Counter("meecc_serve_runs_finished_total", "Runs reaching a terminal state.", "outcome", outcome).Inc()
	kv := []any{"run", ru.id, "outcome", outcome,
		"executed", ru.executed.Load(), "memoized", ru.memoized.Load()}
	if errMsg != "" {
		s.log.Error("run finished", append(kv, "err", errMsg)...)
		return
	}
	s.log.Info("run finished", kv...)
}

// end journals the run's terminal state, then applies it in memory — the
// same commit order as trials, so a crash between the two replays as
// terminal rather than losing the outcome.
func (s *Server) end(ru *run, outcome string, artifact []byte, failures int, err error) {
	rec := journal.Record{Kind: journal.KindEnd, RunID: ru.id, Outcome: outcome, Artifact: artifact}
	if err != nil {
		rec.ErrMsg = err.Error()
	}
	s.journalAppend(rec)
	switch outcome {
	case "done":
		ru.finish(artifact, failures, s.Stats())
	case "cancelled":
		ru.cancelled(artifact)
	default:
		ru.fail(err)
	}
	s.finishedOps(ru, outcome, rec.ErrMsg)
}

// memoize wraps a runner with the trial memo: results are replayed by
// (cell memo key, trial) content address instead of re-executed, and every
// freshly executed result is journaled before it is used. The memo key
// covers everything a trial depends on, so a hit is exact; specs that share
// cells (including resubmissions under a different name) share entries, and
// a restart rebuilds the table from the journal.
func (s *Server) memoize(ru *run, runner exp.Runner) exp.Runner {
	return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
		key := fmt.Sprintf("%s/%d", j.Spec.CellMemoKey(j.Cell), j.Trial)
		s.mu.Lock()
		if v, ok := s.memo[key]; ok {
			s.stats.TrialsMemoized++
			s.mu.Unlock()
			s.inst.trialsMemoized.Inc()
			ru.memoized.Add(1)
			s.spans.Record(ru.id, "memo", spanName("memo", j.Cell.Key(), j.Trial), time.Now(), 0)
			if v.err != "" {
				return nil, nil, fmt.Errorf("%s", v.err)
			}
			return v.metrics, v.snap, nil
		}
		s.mu.Unlock()

		// Fresh execution: timed, spanned on a leased slot track (so
		// concurrent trials render as parallel rows in the trace), and
		// journaled before the result is used.
		slot := s.acquireSlot()
		trialStart := time.Now()
		m, snap, err := runner(j)
		trialDur := time.Since(trialStart)
		s.releaseSlot(slot)
		s.inst.trialSeconds.Observe(trialDur.Seconds())
		s.spans.Record(ru.id, fmt.Sprintf("slot-%d", slot), spanName("trial", j.Cell.Key(), j.Trial), trialStart, trialDur)

		v := memoTrial{metrics: m, snap: snap}
		if err != nil {
			v.err = err.Error()
		}
		s.journalAppend(journal.Record{
			Kind:     journal.KindTrial,
			Key:      key,
			Metrics:  m,
			Obs:      snap.Encode(),
			TrialErr: v.err,
		})
		s.mu.Lock()
		s.memo[key] = v
		s.stats.TrialsExecuted++
		s.mu.Unlock()
		s.inst.trialsExecuted.Inc()
		ru.executed.Add(1)
		return m, snap, err
	}
}

// Shutdown drains the service: admission stops immediately (submissions get
// 503 + Retry-After), in-flight runs get until ctx's deadline to finish on
// their own, then their dispatchers stop and in-flight trials drain. Every
// committed trial is already journaled, so anything cut off resumes on
// restart; with a store, every resident warm state is spilled to it; a
// clean checkpoint is journaled and synced before return.
// Idempotent: later calls wait for the first to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.log.Info("drain started: admission stopped, in-flight runs finishing")
	close(s.quit)

	finished := make(chan struct{})
	go func() {
		s.running.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		// Grace expired: start no new trial; in-flight ones drain.
		s.mu.Lock()
		live := make([]*run, 0, len(s.runs))
		for _, ru := range s.runs {
			live = append(live, ru)
		}
		s.mu.Unlock()
		for _, ru := range live {
			ru.cancelWith(errShutdown)
		}
		<-finished
	}
	s.workers.Wait()
	// Only evicted warm states reach the store on their own; spill the
	// resident ones too, so a restart faults them in instead of warming up.
	s.warm.SpillResident()

	// Runs that never started (still queued) end their streams here; with no
	// terminal journal record they are resumable after restart.
	s.mu.Lock()
	var interrupted []*run
	for _, id := range s.order {
		if ru := s.runs[id]; !ru.snapshotState().terminal() {
			ru.interrupted()
			interrupted = append(interrupted, ru)
		}
	}
	s.mu.Unlock()
	for _, ru := range interrupted {
		s.finishedOps(ru, "interrupted", "")
	}

	if s.journal != nil {
		s.journalAppend(journal.Record{Kind: journal.KindCheckpoint})
		s.journal.Sync()
		s.journal.Close()
	}
	s.log.Info("shutdown complete", "uptime_seconds", int64(time.Since(s.started).Seconds()))
	close(s.done)
	return nil
}

// Close shuts the server down with no grace period: dispatchers stop at the
// next trial boundary, in-flight trials drain, committed work stays
// journaled.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *run {
	s.mu.Lock()
	ru := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if ru == nil {
		httpError(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
	}
	return ru
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]RunInfo, len(s.order))
	for i, id := range s.order {
		infos[i] = s.runs[id].info()
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"runs": infos})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ru.info())
}

// handleCancel stops a run: a queued run dies immediately, a running run's
// dispatcher stops and its in-flight trials drain into a partial artifact.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	if ru.cancelIfQueued() {
		s.journalAppend(journal.Record{Kind: journal.KindEnd, RunID: ru.id, Outcome: "cancelled"})
		s.finishedOps(ru, "cancelled", "")
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"id": ru.id, "state": string(StateCancelled)})
		return
	}
	if st := ru.snapshotState(); st.terminal() {
		httpError(w, http.StatusConflict, "run %s is already %s", ru.id, st)
		return
	}
	ru.cancelWith(errClientCancel)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": ru.id, "state": "cancelling"})
}

// handleEvents streams the run's event history from the requested offset
// (?from=N, default 0) and then follows it live as NDJSON, one event object
// per line, ending with the terminal event. A disconnected client resumes by
// passing the last seq it saw plus one; offsets from a previous server
// incarnation that overrun the rebuilt history replay from the start.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	next := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "bad from offset %q", v)
			return
		}
		next = n
	}
	s.inst.streamsTotal.Inc()
	if next > 0 {
		// A nonzero resume offset means a client reconnected mid-run.
		s.inst.streamResumes.Inc()
	}
	s.inst.streamsActive.Add(1)
	defer s.inst.streamsActive.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		evs, notify, terminal := ru.eventsFrom(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(evs) > 0 {
			next = evs[len(evs)-1].Seq + 1
			if flusher != nil {
				flusher.Flush()
			}
		}
		if terminal && next >= ru.eventCount() {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		case <-s.done:
			// Server shut down mid-stream; the client resumes with ?from=.
			return
		}
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	ru := s.lookup(w, r)
	if ru == nil {
		return
	}
	artifact, state, errMsg := ru.result()
	switch state {
	case StateDone, StateCancelled:
		if artifact == nil {
			httpError(w, http.StatusConflict, "run %s was cancelled before producing an artifact", ru.id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(artifact)
	case StateFailed:
		httpError(w, http.StatusInternalServerError, "run failed: %s", errMsg)
	default:
		httpError(w, http.StatusConflict, "run %s is still %s", ru.id, state)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

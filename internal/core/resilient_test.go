package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"meecc/internal/fault"
	"meecc/internal/sim"
)

// ---------------------------------------------------------------------------
// Controller ladder unit tests: the spy-side state machine is pure, so the
// whole reaction ladder is exercised here without booting a platform.

func testController(t *testing.T, chunks int) *controller {
	t.Helper()
	sizes := make([]int, chunks)
	for i := range sizes {
		sizes[i] = chunkBytes
	}
	return newController(DefaultChannelConfig(1).Window, sizes)
}

// obsFor builds a clean observation for a plan: every scheduled chunk decoded.
func obsFor(p roundPlan) roundObs {
	obs := roundObs{plan: p, end: p.start + 1_000_000, at: p.start + 1_000_000, decoded: map[int][]byte{}}
	for _, ci := range p.chunks {
		obs.decoded[ci] = make([]byte, 8)
	}
	return obs
}

func TestControllerCleanRunFinishes(t *testing.T) {
	c := testController(t, 4)
	p := c.first(100)
	rounds := 0
	for !p.done && !p.abort {
		if rounds++; rounds > 10 {
			t.Fatalf("clean link did not finish in %d rounds", rounds)
		}
		p = c.next(obsFor(p))
	}
	if p.abort {
		t.Fatalf("clean link aborted: %s", p.reason)
	}
	// 4 chunks at 2 per round = 2 data rounds, no adaptations.
	if c.rounds != 2 || len(c.report.Actions) != 0 {
		t.Fatalf("rounds=%d actions=%v, want 2 rounds and no actions", c.rounds, c.report.Actions)
	}
}

func TestControllerRetransmitsFailedChunks(t *testing.T) {
	c := testController(t, 2)
	p := c.first(0)
	if !reflect.DeepEqual(p.chunks, []int{0, 1}) {
		t.Fatalf("first plan chunks = %v", p.chunks)
	}
	obs := obsFor(p)
	obs.decoded = map[int][]byte{1: make([]byte, 8)} // chunk 0 failed
	obs.failed = []int{0}
	p = c.next(obs)
	if !reflect.DeepEqual(p.chunks, []int{0}) {
		t.Fatalf("retransmit plan chunks = %v, want [0]", p.chunks)
	}
	if c.report.Retransmits != 1 || c.report.Count(ActRetransmit) != 1 {
		t.Fatalf("retransmits=%d actions=%v", c.report.Retransmits, c.report.Actions)
	}
	p = c.next(obsFor(p))
	if !p.done {
		t.Fatalf("expected done after last chunk, got %+v", p)
	}
}

func TestControllerDropoutTriggersResyncThenAborts(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	for i := 0; i < maxResyncs; i++ {
		obs := obsFor(p)
		obs.decoded = map[int][]byte{}
		obs.failed = append([]int{}, p.chunks...)
		obs.dropout = 0.8
		p = c.next(obs)
		if !p.resync {
			t.Fatalf("resync %d: dropout 0.8 produced plan %+v", i, p)
		}
		// The resync succeeds; the next data round sees dropout again.
		obs = roundObs{plan: p, end: p.start + 1, at: p.start + 1, resyncOK: true, decoded: map[int][]byte{}}
		p = c.next(obs)
		if p.resync || p.abort {
			t.Fatalf("after successful resync got plan %+v", p)
		}
	}
	obs := obsFor(p)
	obs.decoded = map[int][]byte{}
	obs.failed = append([]int{}, p.chunks...)
	obs.dropout = 0.9
	p = c.next(obs)
	if !p.abort || !strings.Contains(p.reason, "stale") {
		t.Fatalf("after %d resyncs expected stale abort, got %+v", maxResyncs, p)
	}
	if c.report.Resyncs != maxResyncs {
		t.Fatalf("Resyncs=%d, want %d", c.report.Resyncs, maxResyncs)
	}
}

func TestControllerFailedResyncRetriesThenAborts(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	obs := obsFor(p)
	obs.decoded = map[int][]byte{}
	obs.failed = append([]int{}, p.chunks...)
	obs.dropout = 1.0
	p = c.next(obs)
	if !p.resync {
		t.Fatalf("want resync, got %+v", p)
	}
	for i := 1; i < maxResyncs; i++ {
		p = c.next(roundObs{plan: p, end: p.start + 1, at: p.start + 1, decoded: map[int][]byte{}}) // resyncOK=false
		if !p.resync {
			t.Fatalf("failed resync %d should retry, got %+v", i, p)
		}
	}
	p = c.next(roundObs{plan: p, end: p.start + 1, at: p.start + 1, decoded: map[int][]byte{}})
	if !p.abort || !strings.Contains(p.reason, "re-acquisition") {
		t.Fatalf("want re-acquisition abort, got %+v", p)
	}
}

func TestControllerPilotBERRecalibratesThenDegrades(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	bad := func(p roundPlan) roundObs {
		obs := obsFor(p)
		obs.decoded = map[int][]byte{}
		obs.failed = append([]int{}, p.chunks...)
		obs.pilotErr = 0.4
		return obs
	}
	p = c.next(bad(p))
	if !p.recal || c.report.Count(ActRecalibrate) != 1 {
		t.Fatalf("first bad pilot should recalibrate, got %+v (%v)", p, c.report.Actions)
	}
	// Recal didn't help: the ladder widens the window 15k -> 30k -> 60k...
	baseW := c.window
	for want := baseW * 2; want <= c.maxWindow; want *= 2 {
		p = c.next(bad(p))
		if p.window != want {
			t.Fatalf("want window %d, got %+v", want, p)
		}
		p = c.next(bad(p)) // recal round interleaves at each new operating point
		if !p.recal {
			t.Fatalf("expected recal after widen, got %+v", p)
		}
	}
	// ...then raises repetition 1 -> 3 -> 5, then aborts.
	for _, wantRep := range []int{3, 5} {
		p = c.next(bad(p))
		if p.rep != wantRep {
			t.Fatalf("want repetition %d, got %+v", wantRep, p)
		}
		p = c.next(bad(p))
		if !p.recal {
			t.Fatalf("expected recal after repetition raise, got %+v", p)
		}
	}
	p = c.next(bad(p))
	if !p.abort || !strings.Contains(p.reason, "maximum degradation") {
		t.Fatalf("want max-degradation abort, got %+v", p)
	}
	if c.report.Count(ActWidenWindow) != 2 || c.report.Count(ActRepetition) != 2 {
		t.Fatalf("actions: %v", c.report.Actions)
	}
}

func TestControllerChunkAttemptsExhaustDegrades(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	for i := 0; i < maxChunkAttempts; i++ {
		obs := obsFor(p)
		obs.decoded = map[int][]byte{}
		obs.failed = []int{0} // healthy pilot, chunk keeps dying
		p = c.next(obs)
		if p.abort {
			t.Fatalf("aborted early at attempt %d: %+v", i, p)
		}
	}
	if c.report.Count(ActWidenWindow) != 1 {
		t.Fatalf("attempt budget exhausted without degradation: %v", c.report.Actions)
	}
	if c.attempts[0] != 0 {
		t.Fatalf("attempts not reset after degradation: %v", c.attempts)
	}
}

func TestControllerBackoffGrowsAndResets(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	ends := []sim.Cycles{}
	gap0 := backoff0
	for i := 0; i < 3; i++ {
		obs := obsFor(p)
		obs.decoded = map[int][]byte{}
		obs.failed = []int{0}
		obs.end = p.start + 1_000_000
		obs.at = obs.end
		p = c.next(obs)
		ends = append(ends, p.start-obs.end)
	}
	if ends[0] != gap0 || ends[1] != gap0*2 || ends[2] != gap0*4 {
		t.Fatalf("backoff gaps = %v, want %d,%d,%d", ends, gap0, gap0*2, gap0*4)
	}
	if c.report.Count(ActBackoff) != 3 {
		t.Fatalf("actions: %v", c.report.Actions)
	}
}

func TestControllerMaxRoundsAborts(t *testing.T) {
	c := testController(t, 1)
	p := c.first(0)
	// Rounds that deliver nothing and fail nothing move no other rung of
	// the ladder, so only the round budget ends them.
	for i := 0; i < maxRounds; i++ {
		if p.abort {
			t.Fatalf("aborted after %d of %d rounds: %+v", i, maxRounds, p)
		}
		obs := obsFor(p)
		obs.decoded = map[int][]byte{}
		p = c.next(obs)
	}
	if !p.abort || !strings.Contains(p.reason, "round budget") {
		t.Fatalf("want round-budget abort, got %+v", p)
	}
}

// ---------------------------------------------------------------------------
// End-to-end session tests.

func TestResilientCleanLinkDelivers(t *testing.T) {
	payload := []byte("MEE covert channel: resilient transfer")
	res, err := RunResilient(DefaultChannelConfig(42), payload)
	if err != nil {
		t.Fatalf("RunResilient: %v (report: %+v)", err, res.Report)
	}
	if !res.Delivered || !bytes.Equal(res.Payload, payload) {
		t.Fatalf("payload mismatch: delivered=%v got %q", res.Delivered, res.Payload)
	}
	if res.ChunksDelivered != res.Chunks {
		t.Fatalf("chunks %d/%d", res.ChunksDelivered, res.Chunks)
	}
	if res.GoodputKBps <= 0 {
		t.Fatalf("goodput %v", res.GoodputKBps)
	}
	if res.Report.FinalWindow != DefaultChannelConfig(42).Window {
		t.Fatalf("clean link degraded to window %d", res.Report.FinalWindow)
	}
	// Goodput folds in the whole session (pilots, control gaps, any
	// retransmits), so it must sit below the raw window rate.
	if raw := 4e9 / (8 * float64(DefaultChannelConfig(42).Window)) / 1000; res.GoodputKBps >= raw {
		t.Fatalf("goodput %.3f KBps not below raw channel rate %.3f", res.GoodputKBps, raw)
	}
}

func TestResilientRejectsBadPayload(t *testing.T) {
	if _, err := RunResilient(DefaultChannelConfig(1), nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := RunResilient(DefaultChannelConfig(1), make([]byte, 300)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// faultAcceptance holds the calibrated per-kind intensities at which the
// *static* channel is past 10% BER (measured by TestStaticChannelBreaksUnderFaults).
var faultAcceptance = []struct {
	kind      fault.Kind
	intensity float64
}{
	{fault.Migration, 8},
	{fault.Timer, 4},
	{fault.Paging, 8},
	{fault.MEEFlush, 24},
	{fault.Storm, 6},
}

func faultCfg(kind fault.Kind, intensity float64) *fault.Config {
	return &fault.Config{Seed: 7, Kinds: []fault.Kind{kind}, Intensity: intensity}
}

// TestStaticChannelBreaksUnderFaults pins the calibration the acceptance test
// below relies on: at these intensities the raw channel is genuinely broken.
func TestStaticChannelBreaksUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, c := range faultAcceptance {
		cfg := DefaultChannelConfig(42)
		cfg.Bits = AlternatingBits(96)
		cfg.Fault = faultCfg(c.kind, c.intensity)
		res, err := RunChannel(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if res.ErrorRate <= 0.10 {
			t.Errorf("%s intensity %v: static BER %.3f, want > 0.10 (recalibrate faultAcceptance)",
				c.kind, c.intensity, res.ErrorRate)
		}
		if len(res.Faults) == 0 {
			t.Errorf("%s: no faults recorded", c.kind)
		}
	}
}

// TestResilientNeverSilentlyCorrupts is the headline acceptance criterion:
// under every fault kind at an intensity where the static channel is past 10%
// BER, the session layer either delivers the payload intact or returns an
// explicit degradation error. What it may never do is return wrong bytes.
func TestResilientNeverSilentlyCorrupts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	payload := []byte("resilience probe")
	delivered := 0
	for _, c := range faultAcceptance {
		cfg := DefaultChannelConfig(42)
		cfg.Fault = faultCfg(c.kind, c.intensity)
		res, err := RunResilient(cfg, payload)
		if err != nil {
			if res.Delivered || res.Payload != nil {
				t.Errorf("%s: error %v but result still claims delivery", c.kind, err)
			}
			if res.Report.Count(ActAbort) == 0 {
				t.Errorf("%s: error %v without an abort action in the report", c.kind, err)
			}
			t.Logf("%s I=%v: explicit degradation: %v (%d rounds, %d actions)",
				c.kind, c.intensity, err, res.Report.Rounds, len(res.Report.Actions))
			continue
		}
		if !res.Delivered || !bytes.Equal(res.Payload, payload) {
			t.Errorf("%s: nil error but payload %q, want %q", c.kind, res.Payload, payload)
			continue
		}
		delivered++
		t.Logf("%s I=%v: delivered through %d rounds (%d retransmits, %d recals, %d resyncs)",
			c.kind, c.intensity, res.Report.Rounds, res.Report.Retransmits,
			res.Report.Recals, res.Report.Resyncs)
	}
	// The ladder must rescue at least one kind outright — otherwise the
	// adaptive layer is indistinguishable from a bare abort.
	if delivered == 0 {
		t.Error("no fault kind was survived at its acceptance intensity")
	}
}

// TestResilientAdaptiveBeatsStaticUnderFlush pins one concrete adaptive win:
// at meeflush intensity 12 the static channel runs past 20% BER while the
// session layer still delivers the payload intact via chunk ARQ.
func TestResilientAdaptiveBeatsStaticUnderFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fc := faultCfg(fault.MEEFlush, 12)
	ccfg := DefaultChannelConfig(42)
	ccfg.Bits = AlternatingBits(96)
	ccfg.Fault = fc
	ch, err := RunChannel(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if ch.ErrorRate <= 0.10 {
		t.Fatalf("static BER %.3f, scenario not hostile enough", ch.ErrorRate)
	}
	payload := []byte("resilience probe")
	rcfg := DefaultChannelConfig(42)
	rcfg.Fault = fc
	res, err := RunResilient(rcfg, payload)
	if err != nil {
		t.Fatalf("adaptive session failed where it should deliver: %v (report %+v)", err, res.Report)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatalf("payload %q", res.Payload)
	}
	if res.Report.Retransmits == 0 {
		t.Error("delivered under meeflush without a single retransmit — fault had no effect")
	}
}

func TestResilientDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func() (*ResilientResult, error) {
		cfg := DefaultChannelConfig(42)
		cfg.Fault = faultCfg(fault.Migration, 8)
		return RunResilient(cfg, []byte("determinism probe"))
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors differ: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatalf("reports differ:\n%+v\n%+v", a.Report, b.Report)
	}
	if !reflect.DeepEqual(a.Faults, b.Faults) {
		t.Fatal("fault logs differ")
	}
	if a.BitsSent != b.BitsSent || a.GoodputKBps != b.GoodputKBps {
		t.Fatalf("metrics differ: %d/%.4f vs %d/%.4f", a.BitsSent, a.GoodputKBps, b.BitsSent, b.GoodputKBps)
	}
}

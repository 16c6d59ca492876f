package platform

import (
	"testing"

	"meecc/internal/cpucache"
	"meecc/internal/sim"
)

// TestTimerThreadMatchesAnalyticModel validates Thread.TimerNow (the
// analytic Figure 2(c) model) against the explicit timer-thread actor: both
// must deliver readings that are slightly stale, cheap to read, and
// monotone.
func TestTimerThreadMatchesAnalyticModel(t *testing.T) {
	cfg := DefaultConfig(77)
	cfg.SpikeProb = 0 // quiet machine: compare the mechanisms themselves
	p := New(cfg)
	defer p.Close()
	pr := p.NewProcess("proc")
	if _, err := pr.CreateEnclave(2); err != nil {
		t.Fatal(err)
	}
	tsVA := p.StartTimerThread(pr, 1)

	type sample struct {
		value     sim.Cycles // timer reading
		trueTime  sim.Cycles // clock at read completion
		readCost  sim.Cycles
		mechanism string
	}
	var samples []sample
	p.SpawnThread("reader", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		th.Spin(5000) // let the timer thread warm up
		for i := 0; i < 50; i++ {
			before := th.Now()
			v := th.TimerNow()
			// A load's value is architecturally visible at completion, so
			// staleness is measured against the post-read clock.
			samples = append(samples, sample{v, th.Now(), th.Now() - before, "analytic"})
			th.Spin(777)
			before = th.Now()
			raw, _ := th.ReadU64(tsVA)
			samples = append(samples, sample{sim.Cycles(raw), th.Now(), th.Now() - before, "actor"})
			th.Spin(777)
		}
	})
	p.Run(2_000_000)

	if len(samples) != 100 {
		t.Fatalf("got %d samples", len(samples))
	}
	lastByMech := map[string]sim.Cycles{}
	for i, s := range samples {
		staleness := s.trueTime - s.value
		if staleness < 0 {
			t.Fatalf("sample %d (%s): timer value %d ahead of true time %d", i, s.mechanism, s.value, s.trueTime)
		}
		// Both mechanisms must be stale by at most ~2 update periods.
		if staleness > 120 {
			t.Errorf("sample %d (%s): staleness %d cycles", i, s.mechanism, staleness)
		}
		// Reading must cost tens of cycles, not an OCALL.
		if s.readCost < 1 || s.readCost > 150 {
			t.Errorf("sample %d (%s): read cost %d", i, s.mechanism, s.readCost)
		}
		if prev, ok := lastByMech[s.mechanism]; ok && s.value < prev {
			t.Errorf("sample %d (%s): timer went backwards (%d < %d)", i, s.mechanism, s.value, prev)
		}
		lastByMech[s.mechanism] = s.value
	}
}

// TestWriteInvalidatesOtherCores checks the MESI-style behaviour the timer
// thread depends on: after a write, another core's cached copy is gone and
// its next read pays the shared-cache path (and sees the new value).
func TestWriteInvalidatesOtherCores(t *testing.T) {
	p := New(DefaultConfig(78))
	defer p.Close()
	pr := p.NewProcess("proc")
	va := pr.AllocGeneral(1)

	// Reader on core 0 caches the line, then the writer on core 1 updates
	// it; the reader must observe the new value.
	var got uint64
	var secondReadCost sim.Cycles
	p.SpawnThread("reader", pr, 0, func(th *Thread) {
		th.ReadU64(va) // warm: now in core 0's L1
		th.SpinUntil(10_000)
		before := th.Now()
		got, _ = th.ReadU64(va)
		secondReadCost = th.Now() - before
	})
	p.SpawnThreadAt("writer", pr, 1, 5000, func(th *Thread) {
		th.WriteU64(va, 0xABCD)
	})
	p.Run(-1)
	if got != 0xABCD {
		t.Fatalf("reader saw %#x, want 0xABCD", got)
	}
	// The read after invalidation cannot be an L1 hit (4 cycles).
	if secondReadCost <= cpucache.L1Lat {
		t.Fatalf("post-invalidation read cost %d looks like an L1 hit", secondReadCost)
	}
}

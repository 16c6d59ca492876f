package platform

import (
	"fmt"
	"strings"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/sim"
)

func TestHugepagesAlignedAndContiguous(t *testing.T) {
	p := New(DefaultConfig(90))
	defer p.Close()
	pr := p.NewProcess("h")
	base := pr.AllocHugepages(2)
	if uint64(base)%HugepageBytes != 0 {
		t.Fatalf("hugepage VA %#x not 2MB aligned", base)
	}
	pa0, ok := pr.Translate(base)
	if !ok || uint64(pa0)%HugepageBytes != 0 {
		t.Fatalf("hugepage PA %#x not 2MB aligned", pa0)
	}
	// Physically contiguous within each hugepage.
	for off := 0; off < HugepageBytes; off += enclave.PageBytes {
		pa, ok := pr.Translate(base + enclave.VAddr(off))
		if !ok {
			t.Fatalf("hole at offset %#x", off)
		}
		if uint64(pa) != uint64(pa0)+uint64(off) {
			t.Fatalf("offset %#x not contiguous: %#x vs %#x", off, pa, uint64(pa0)+uint64(off))
		}
	}
	// Second hugepage need not be adjacent to the first but must itself be
	// aligned.
	pa1, _ := pr.Translate(base + HugepageBytes)
	if uint64(pa1)%HugepageBytes != 0 {
		t.Fatalf("second hugepage PA %#x unaligned", pa1)
	}
}

func TestWriteU64CrossLinePanics(t *testing.T) {
	p := New(DefaultConfig(91))
	defer p.Close()
	pr := p.NewProcess("x")
	va := pr.AllocGeneral(1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "crosses") {
			t.Fatalf("expected cross-line panic, got %v", r)
		}
		p.Close()
	}()
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		th.WriteU64(va+60, 1) // straddles the 64-byte boundary
	})
	p.Run(-1)
}

func TestUnmappedAccessPanics(t *testing.T) {
	p := New(DefaultConfig(92))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unmapped") {
			t.Fatalf("expected unmapped fault, got %v", r)
		}
		p.Close()
	}()
	pr := p.NewProcess("x")
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		th.Access(0xdead0000)
	})
	p.Run(-1)
}

func TestSpawnThreadBadCorePanics(t *testing.T) {
	p := New(DefaultConfig(93))
	defer p.Close()
	pr := p.NewProcess("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range core")
		}
	}()
	p.SpawnThread("x", pr, 7, func(th *Thread) {})
}

func TestNestedEnterEnclavePanics(t *testing.T) {
	p := New(DefaultConfig(94))
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected nested EENTER panic")
		}
		p.Close()
	}()
	pr := p.NewProcess("x")
	if _, err := pr.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		th.EnterEnclave()
	})
	p.Run(-1)
}

func TestExitEnclaveOutsidePanics(t *testing.T) {
	p := New(DefaultConfig(95))
	defer func() {
		if recover() == nil {
			t.Fatal("expected EEXIT panic")
		}
		p.Close()
	}()
	pr := p.NewProcess("x")
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		th.ExitEnclave()
	})
	p.Run(-1)
}

func TestEnterExitRoundTripCost(t *testing.T) {
	p := New(DefaultConfig(96))
	defer p.Close()
	pr := p.NewProcess("x")
	if _, err := pr.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	var cost sim.Cycles
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		before := th.Now()
		th.EnterEnclave()
		th.ExitEnclave()
		cost = th.Now() - before
	})
	p.Run(-1)
	want := sim.Cycles(2 * EnterExitCost)
	if cost != want {
		t.Fatalf("EENTER+EEXIT cost %d, want %d", cost, want)
	}
}

func TestSecondEnclavePerProcessRejected(t *testing.T) {
	p := New(DefaultConfig(97))
	defer p.Close()
	pr := p.NewProcess("x")
	if _, err := pr.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.CreateEnclave(1); err == nil {
		t.Fatal("second enclave accepted")
	}
}

func TestEPCExhaustion(t *testing.T) {
	cfg := DefaultConfig(98)
	p := New(cfg)
	defer p.Close()
	pr := p.NewProcess("big")
	total := EPCSize / enclave.PageBytes
	if _, err := pr.CreateEnclave(total + 1); err == nil {
		t.Fatal("EPC over-allocation accepted")
	}
}

func TestSpikeExposureScalesWithLatency(t *testing.T) {
	cfg := DefaultConfig(99)
	cfg.SpikeProb = 1.0 // always spike at full exposure
	cfg.SpikeMax = 10000
	p := New(cfg)
	defer p.Close()
	pr := p.NewProcess("x")
	va := pr.AllocGeneral(1)
	spikes := 0
	const n = 400
	p.SpawnThread("x", pr, 0, func(th *Thread) {
		th.Access(va) // warm: L1 resident afterwards
		for i := 0; i < n; i++ {
			r := th.Access(va) // 4-cycle L1 hits: tiny exposure
			if r.Lat > 100 {
				spikes++
			}
		}
	})
	p.Run(-1)
	// Exposure for a 4-cycle op is 4/500 = 0.8%; with n=400 expect ~3,
	// certainly far below the 100% a naive per-op model would give.
	if spikes > n/10 {
		t.Fatalf("%d/%d L1 hits spiked; exposure not scaled by latency", spikes, n)
	}
}

func TestGeneralMemoryIsolationBetweenProcesses(t *testing.T) {
	p := New(DefaultConfig(100))
	defer p.Close()
	prA := p.NewProcess("a")
	prB := p.NewProcess("b")
	vaA := prA.AllocGeneral(1)
	vaB := prB.AllocGeneral(1)
	paA, _ := prA.Translate(vaA)
	paB, _ := prB.Translate(vaB)
	if paA == paB {
		t.Fatal("two processes share a physical frame")
	}
}

// TestWriteU64StoresBeforeYielding races a store loop against a
// load+clflush loop on the same general line from another core. A store
// moves its data before its latency yields to the other thread, so a flush
// can never leave it a line without a buffer to store into, and the line
// ends up holding the last value stored.
func TestWriteU64StoresBeforeYielding(t *testing.T) {
	p := bootDefault(t, 3)
	defer p.Close()
	pr := p.NewProcess("x")
	va := pr.AllocGeneral(1)
	const n = 2000
	p.SpawnThread("writer", pr, 0, func(th *Thread) {
		for i := 1; i <= n; i++ {
			th.WriteU64(va, uint64(i))
		}
	})
	p.SpawnThread("flusher", pr, 2, func(th *Thread) {
		for i := 0; i < n; i++ {
			th.AccessFlush(va)
		}
	})
	p.Run(-1)
	var got uint64
	p.SpawnThread("reader", pr, 0, func(th *Thread) { got, _ = th.ReadU64(va) })
	p.Run(-1)
	if got != n {
		t.Fatalf("line holds %d after the last store, want %d", got, n)
	}
}

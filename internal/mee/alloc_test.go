package mee

import (
	"math/rand/v2"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// TestWarmReadDataAllocFree pins the zero-allocation property of the hot
// probe path: once a data line's versions and tag lines are MEE-cache
// resident, ReadData must not touch the heap. The covert-channel benchmarks
// execute this path millions of times per simulated transmission.
func TestWarmReadDataAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 22))
	mem := dram.New(dram.DefaultConfig())
	geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(DefaultConfig(), geom, itree.NewCrypto([16]byte{1, 2, 3}), mem)
	addr := geom.DataBase
	var now sim.Cycles

	read := func() {
		now += 100000
		if _, _, _, err := eng.ReadData(now, rng, addr); err != nil {
			t.Fatalf("ReadData: %v", err)
		}
	}
	read() // cold: walks and fills the MEE cache
	read() // warm sanity

	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("warm ReadData allocated %.1f times per op, want 0", allocs)
	}
}

// TestWarmReadDataAllocFreeWithMetrics re-pins the warm-path property with
// live instrumentation: counters increment and the latency histogram observes
// on every read, and none of it may allocate. (The tracer is exercised by the
// obs package's own alloc tests; attaching one here would also pass, but the
// metrics registry is the part every -metrics run enables.)
func TestWarmReadDataAllocFreeWithMetrics(t *testing.T) {
	rng := rand.New(rand.NewPCG(55, 66))
	mem := dram.New(dram.DefaultConfig())
	geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(DefaultConfig(), geom, itree.NewCrypto([16]byte{7, 8, 9}), mem)
	o := obs.NewObserver().WithTracer(1 << 10)
	eng.Observe(o)
	addr := geom.DataBase
	var now sim.Cycles

	read := func() {
		now += 100000
		if _, _, _, err := eng.ReadData(now, rng, addr); err != nil {
			t.Fatalf("ReadData: %v", err)
		}
	}
	read()
	read()
	if allocs := testing.AllocsPerRun(200, read); allocs != 0 {
		t.Fatalf("instrumented warm ReadData allocated %.1f times per op, want 0", allocs)
	}
	snap := o.Snapshot()
	if snap.Counters["mee.reads"] == 0 {
		t.Error("mee.reads sample missing from snapshot")
	}
	if snap.Histograms["mee.read_latency"].Count == 0 {
		t.Error("read-latency histogram never observed")
	}
}

// TestForkAllocsIndependentOfResidency pins the arena-backed Fork: cloning
// the engine is a fixed set of slab allocations plus memcpys, with the MEE
// cache's set blocks shared copy-on-write, so the allocation count must not
// scale with how many node lines are resident.
func TestForkAllocsIndependentOfResidency(t *testing.T) {
	forkAllocs := func(lines int) float64 {
		rng := rand.New(rand.NewPCG(77, 88))
		mem := dram.New(dram.DefaultConfig())
		geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
		if err != nil {
			t.Fatal(err)
		}
		eng := New(DefaultConfig(), geom, itree.NewCrypto([16]byte{9, 9, 9}), mem)
		var now sim.Cycles
		for i := 0; i < lines; i++ {
			now += 100000
			addr := geom.DataBase + dram.Addr(uint64(i)*itree.DataPerVersionLine)
			if _, _, _, err := eng.ReadData(now, rng, addr); err != nil {
				t.Fatalf("ReadData: %v", err)
			}
		}
		return testing.AllocsPerRun(20, func() { eng.Fork(nil, nil) })
	}
	few, many := forkAllocs(2), forkAllocs(256)
	if few != many {
		t.Fatalf("Fork allocations scale with residency: %.1f at 2 lines vs %.1f at 256", few, many)
	}
}

// TestSteadyStateReadDataAllocFree exercises the miss path over a working
// set larger than the MEE cache: after a warm-up pass that grows the nodeBuf
// pool to its high-water mark, continued conflict misses (evict + refill)
// must recycle buffers instead of allocating.
func TestSteadyStateReadDataAllocFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 44))
	mem := dram.New(dram.DefaultConfig())
	geom, err := itree.NewGeometry(1<<30, 128<<20, 96<<20)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(DefaultConfig(), geom, itree.NewCrypto([16]byte{4, 5, 6}), mem)
	var now sim.Cycles

	// Stride by the data span of one versions line so every read lands on a
	// distinct versions line, forcing steady MEE-cache conflict churn.
	const lines = 4096
	read := func(i int) {
		now += 100000
		addr := geom.DataBase + dram.Addr(uint64(i)*itree.DataPerVersionLine)
		if _, _, _, err := eng.ReadData(now, rng, addr); err != nil {
			t.Fatalf("ReadData: %v", err)
		}
	}
	for i := 0; i < lines; i++ { // warm-up: pool reaches high-water mark
		read(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		read(i % lines)
		i++
	})
	// ensureInit's one-time per-line bookkeeping is done after warm-up, so
	// the steady state must be fully recycled.
	if allocs != 0 {
		t.Fatalf("steady-state ReadData allocated %.1f times per op, want 0", allocs)
	}
}

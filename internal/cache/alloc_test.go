package cache

import (
	"testing"

	"meecc/internal/obs"
)

// TestLookupAllocFree pins Lookup's zero-allocation property — it runs on
// every simulated memory access across L1/L2/LLC and the MEE cache.
func TestLookupAllocFree(t *testing.T) {
	c := New("alloc", 16, 4, NewLRU())
	c.Insert(3, 100, false)
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(3, 100) // hit
		c.Lookup(3, 101) // miss
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f times per run, want 0", allocs)
	}
}

// TestInsertInvalidateAllocFree covers the churn path: evicting inserts and
// invalidations must not allocate either.
func TestInsertInvalidateAllocFree(t *testing.T) {
	c := New("alloc", 16, 4, NewLRU())
	var tag Tag
	allocs := testing.AllocsPerRun(200, func() {
		c.Insert(5, tag, tag%2 == 0)
		c.Invalidate(5, tag-3)
		tag++
	})
	if allocs != 0 {
		t.Fatalf("Insert/Invalidate allocated %.1f times per run, want 0", allocs)
	}
}

// TestLookupInsertAllocFreeWithMetrics re-pins both hot paths with an
// observer attached. Cache metrics are all deferred samples over the
// existing Stats struct, so the hot path is unchanged by design — this test
// keeps that true as the instrumentation evolves.
func TestLookupInsertAllocFreeWithMetrics(t *testing.T) {
	c := New("alloc", 16, 4, NewLRU())
	o := obs.NewObserver()
	c.Observe(o, "llc")
	c.Insert(3, 100, false)
	var tag Tag
	allocs := testing.AllocsPerRun(200, func() {
		c.Lookup(3, 100)
		c.Lookup(3, 101)
		c.Insert(5, tag, tag%2 == 0)
		c.Invalidate(5, tag-3)
		tag++
	})
	if allocs != 0 {
		t.Fatalf("instrumented Lookup/Insert allocated %.1f times per run, want 0", allocs)
	}
	snap := o.Snapshot()
	if snap.Counters["cache.llc.hits"] == 0 || snap.Counters["cache.llc.misses"] == 0 {
		t.Errorf("cache samples missing from snapshot: %v", snap.Counters)
	}
}

// TestEvictionsBySetIntoReusesBuffer verifies the allocation-free counter
// snapshot: a caller-provided buffer of sufficient capacity is reused.
func TestEvictionsBySetIntoReusesBuffer(t *testing.T) {
	c := New("alloc", 8, 2, NewLRU())
	for i := 0; i < 32; i++ {
		c.Insert(i%8, Tag(i), false)
	}
	buf := make([]uint64, 8)
	got := c.EvictionsBySetInto(buf)
	if &got[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
	want := c.EvictionsBySet()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("set %d: %d != %d", i, got[i], want[i])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { c.EvictionsBySetInto(buf) }); allocs != 0 {
		t.Fatalf("EvictionsBySetInto allocated %.1f times, want 0", allocs)
	}
	// Undersized or nil buffers grow.
	if short := c.EvictionsBySetInto(make([]uint64, 2)); len(short) != 8 {
		t.Fatalf("short buffer result length %d, want 8", len(short))
	}
}

// TestNewAllocsIndependentOfSets pins the slab layout: a level is a fixed
// set of slabs, so building a 64-set cache and an 8192-set one costs the
// same number of allocations. A per-set line slice or policy object would
// scale with the set count.
func TestNewAllocsIndependentOfSets(t *testing.T) {
	newAllocs := func(sets int) float64 {
		return testing.AllocsPerRun(100, func() { New("alloc", sets, 16, NewLRU()) })
	}
	small, large := newAllocs(64), newAllocs(8192)
	if small != large {
		t.Fatalf("New allocations scale with sets: %.1f at 64 sets vs %.1f at 8192", small, large)
	}
}

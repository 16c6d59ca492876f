package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestCloseReclaimsActorGoroutines guards against goroutine leaks in the
// engine shutdown path: every suspended actor coroutine (each backed by a
// runtime goroutine) must observe the kill sentinel and exit, even when
// actors are mid-simulation with pending work.
// Experiment batches boot thousands of engines per process, so a single
// leaked goroutine per engine would accumulate into real memory pressure.
func TestCloseReclaimsActorGoroutines(t *testing.T) {
	countGoroutines := func() int {
		runtime.GC()
		return runtime.NumGoroutine()
	}
	base := countGoroutines()
	for i := 0; i < 50; i++ {
		e := NewEngine(uint64(i))
		for j := 0; j < 8; j++ {
			e.Spawn(fmt.Sprintf("spinner-%d", j), func(p *Proc) {
				for { // never returns: only Close can reclaim it
					p.Advance(10)
				}
			})
		}
		e.Run(1000) // leave all actors parked mid-run
		e.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A small cushion absorbs unrelated runtime goroutines (GC workers,
		// test timers) that may come and go.
		if n := countGoroutines(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d at start, %d now", base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

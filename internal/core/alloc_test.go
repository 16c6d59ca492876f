package core

import (
	"runtime"
	"testing"

	"meecc/internal/platform"
)

// TestBootAndForkBytes bounds the bytes a trial allocates before it runs:
// booting a default machine, and forking a warm channel state, as 6 of
// every 7 Figure 7 trials do. Neither may scale with the machine's size.
// Cache sets get their blocks on first write, and a fork shares its
// snapshot's blocks, DRAM pages and EPC frame list. Boot allocates flat
// per-set words, the MEE slabs and the 196 KB frame list (1.04 MB); a fork
// copies only the words and slabs (0.84 MB). Both were 5.99 MB when every
// cache level was eager slabs. A return to eager slabs fails here.
func TestBootAndForkBytes(t *testing.T) {
	const limit = 1_500_000
	ws, err := WarmChannel(DefaultChannelConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	perRun := func(f func()) uint64 {
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	boot := perRun(func() { platform.New(platform.DefaultConfig(7)).Close() })
	fork := perRun(func() { ws.snap.Fork().Close() })
	t.Logf("boot %d B, fork of a warm channel state %d B", boot, fork)
	if boot > limit {
		t.Errorf("booting a default machine allocated %d B, want at most %d", boot, limit)
	}
	if fork > limit {
		t.Errorf("forking a warm channel state allocated %d B, want at most %d", fork, limit)
	}
}

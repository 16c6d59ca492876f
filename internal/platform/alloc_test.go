package platform

import (
	"testing"

	"meecc/internal/mee"
)

// TestAccessFlushAllocFree pins the steady-state access pair at zero
// allocations on every row of BenchmarkAccessFlush: the CPU hierarchy and
// the MEE each pin their own hot path, and this pins their composition
// through the thread's translate, access, fill and clflush path, and
// through the collapsed pair. It also checks that each row takes the MEE
// path it is named for.
func TestAccessFlushAllocFree(t *testing.T) {
	for _, row := range accessFlushRows {
		accessFlushLoop(t, row.pages, row.fused, func(step func(int) AccessResult) {
			i := 0
			allocs := testing.AllocsPerRun(2*row.pages, func() {
				if res := step(i); !res.WentToMEE || (res.MEEHit == mee.HitVersions) != row.hit {
					t.Fatalf("%s: access %d went to the MEE %v and hit at %v", row.name, i, res.WentToMEE, res.MEEHit)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s: Access+Flush allocated %.2f times per pair, want 0", row.name, allocs)
			}
		})
	}
}

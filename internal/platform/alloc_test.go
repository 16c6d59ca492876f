package platform

import "testing"

// TestAccessFlushAllocFree pins the steady-state access pair at zero
// allocations: the CPU hierarchy and the MEE each pin their own hot path,
// and this pins their composition through the thread's translate, access,
// fill and clflush path.
func TestAccessFlushAllocFree(t *testing.T) {
	accessFlushLoop(t, func(step func(int)) {
		i := 0
		allocs := testing.AllocsPerRun(2*accessFlushPages, func() {
			step(i)
			i++
		})
		if allocs != 0 {
			t.Errorf("Access+Flush allocated %.2f times per pair, want 0", allocs)
		}
	})
}

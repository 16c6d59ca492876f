package platform

import (
	"testing"

	"meecc/internal/enclave"
)

// accessFlushRows are the working sets of the access+flush loops, in
// enclave pages probed one line per page at a 4 KB stride, as Algorithm 1
// walks its candidate pages. At that stride the pages' versions lines fall
// into 8 of the MEE cache's odd sets. 96 pages put 12 lines in each set
// against 8 ways, so every access misses versions and walks the tree, the
// path ~12 % of warm-phase reads take; 32 pages fit, so every access hits
// versions, as the other ~88 % do. The literal rows run Access then Flush;
// the fused rows run AccessFlush, as Algorithm 1 does, which on this lone
// thread always collapses the pair.
var accessFlushRows = []struct {
	name  string
	pages int
	hit   bool // every access after the first pass hits versions
	fused bool // the pair is one AccessFlush
}{
	{"versions-miss", 96, false, false},
	{"versions-hit", 32, true, false},
	{"versions-miss-fused", 96, false, true},
	{"versions-hit-fused", 32, true, true},
}

// accessFlushLoop runs body on an enclave thread of a fresh default machine
// once the thread has made one load+clflush pass over the pages, handing it
// the pair for the i-th step of the round robin, which returns the access's
// result; fused makes each pair one AccessFlush.
func accessFlushLoop(tb testing.TB, pages int, fused bool, body func(step func(i int) AccessResult)) {
	tb.Helper()
	p := New(DefaultConfig(1))
	defer p.Close()
	pr := p.NewProcess("probe")
	e, err := pr.CreateEnclave(pages)
	if err != nil {
		tb.Fatal(err)
	}
	p.SpawnThread("probe", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		step := func(i int) AccessResult {
			va := e.Base + enclave.VAddr(i%pages*enclave.PageBytes)
			if fused {
				return th.AccessFlush(va)
			}
			res := th.Access(va)
			th.Flush(va)
			return res
		}
		for i := 0; i < pages; i++ {
			step(i)
		}
		body(step)
	})
	p.Run(-1)
}

// BenchmarkAccessFlush times Algorithm 1's inner step on the whole machine:
// one protected load and one clflush of the same line, round robin over
// each row's pages. Every access misses the CPU caches and goes to the MEE,
// so ns/op is the host time of one simulated access pair.
func BenchmarkAccessFlush(b *testing.B) {
	for _, row := range accessFlushRows {
		b.Run(row.name, func(b *testing.B) {
			accessFlushLoop(b, row.pages, row.fused, func(step func(int) AccessResult) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step(i)
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkBoot isolates the boot floor every fresh trial pays: building a
// default machine. No cache set has a block yet, so B/op is the flat
// per-set words of every cache level, the MEE node-buffer slab and init
// bitmap, and the EPC frame list.
func BenchmarkBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig(uint64(i))).Close()
	}
}

// BenchmarkFork times what a forked trial pays before it runs: Snapshot.Fork
// and Close of a machine whose enclave thread read and wrote across 64 pages
// (4 096 accesses, every third a write), as the benchmark's standalone fork
// loop does. The fork shares DRAM pages and cache blocks with the snapshot,
// so B/op is what it copies eagerly.
func BenchmarkFork(b *testing.B) {
	p := New(DefaultConfig(1))
	pr := p.NewProcess("traffic")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		b.Fatal(err)
	}
	p.SpawnThread("traffic", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		for i := 0; i < 4096; i++ {
			va := e.Base + enclave.VAddr(i*64%(64*enclave.PageBytes))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
	})
	p.Run(-1)
	snap := p.Snapshot()
	p.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.Fork().Close()
	}
}

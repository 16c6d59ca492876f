package platform

import (
	"testing"

	"meecc/internal/enclave"
)

// accessFlushPages is the working set of the access+flush loops: 96 enclave
// pages, probed one line per page at a 4 KB stride, as Algorithm 1 walks its
// candidate pages.
const accessFlushPages = 96

// accessFlushLoop runs body on an enclave thread of a fresh default machine
// once the thread has made one Access+Flush pass over the pages, handing it
// the pair for the i-th step of the round robin.
func accessFlushLoop(tb testing.TB, body func(step func(i int))) {
	tb.Helper()
	p := New(DefaultConfig(1))
	defer p.Close()
	pr := p.NewProcess("probe")
	e, err := pr.CreateEnclave(accessFlushPages)
	if err != nil {
		tb.Fatal(err)
	}
	p.SpawnThread("probe", pr, 0, func(th *Thread) {
		th.EnterEnclave()
		step := func(i int) {
			va := e.Base + enclave.VAddr(i%accessFlushPages*enclave.PageBytes)
			th.Access(va)
			th.Flush(va)
		}
		for i := 0; i < accessFlushPages; i++ {
			step(i)
		}
		body(step)
	})
	p.Run(-1)
}

// BenchmarkAccessFlush times Algorithm 1's inner step on the whole machine:
// one protected Access and one clflush of the same line, round robin over
// the pages. Every access misses the CPU caches and walks the MEE, so ns/op
// is the host time of one simulated access pair.
func BenchmarkAccessFlush(b *testing.B) {
	accessFlushLoop(b, func(step func(int)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
	})
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

package platform

import (
	"reflect"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/sim"
)

// fuzzOps decodes the fuzz payload into a bounded op script: each byte is
// one enclave memory operation (read, write, or flush+read) at a derived
// page/line offset. The same script always replays the same stream.
type fuzzOp struct {
	kind byte // 0 = read, 1 = write, 2 = flush then read
	off  enclave.VAddr
}

func decodeFuzzOps(data []byte, max int, size enclave.VAddr) []fuzzOp {
	if len(data) > max {
		data = data[:max]
	}
	ops := make([]fuzzOp, len(data))
	for i, b := range data {
		// Spread accesses line-granular across the enclave so scripts hit
		// page-table, MEE-tree, and cache-set variety.
		off := (enclave.VAddr(b) * 64 * 131) % size
		ops[i] = fuzzOp{kind: b % 3, off: off &^ 7}
	}
	return ops
}

// fuzzStep is one op's observable outcome: the timing of the final load
// and the word it read back.
type fuzzStep struct {
	AccessResult
	Val uint64
}

func playFuzzOps(th *Thread, base enclave.VAddr, ops []fuzzOp) []fuzzStep {
	out := make([]fuzzStep, 0, len(ops))
	for i, op := range ops {
		va := base + op.off
		switch op.kind {
		case 1:
			th.WriteU64(va, uint64(i)*0x9e3779b97f4a7c15)
		case 2:
			th.Flush(va)
		}
		val, res := th.ReadU64(va)
		out = append(out, fuzzStep{res, val})
	}
	return out
}

// churnParent keeps a snapshotted platform running on the lines a probe
// script will touch: it writes values no script writes, flushes every other
// line (dirty writebacks re-encrypt through the MEE into DRAM), and fills
// each line's LLC set from five hugepages, so LLC evictions back-invalidate
// and write back the enclave lines and overwrite their buffer slots. None
// of it may reach the snapshot.
func churnParent(p *Platform, st ThreadState, start sim.Cycles, ops []fuzzOp) {
	pr := p.Procs()[0]
	base := pr.Enclave().Base
	huge := pr.AllocHugepages(5)
	const llcSpan = 512 << 10 // LLC sets × line size: lines this far apart share a set
	p.ResumeThread("churn", pr, start, st, func(th *Thread) {
		for i, op := range ops {
			va := base + op.off
			th.WriteU64(va, ^uint64(i))
			if i%2 == 0 {
				th.Flush(va)
			}
		}
		for _, op := range ops {
			pa, _ := pr.Translate(base + op.off)
			off := enclave.VAddr(uint64(pa) % llcSpan)
			for k := enclave.VAddr(0); k < 5*HugepageBytes/llcSpan; k++ {
				th.WriteU64(huge+k*llcSpan+off, uint64(k))
			}
		}
	})
	p.Run(-1)
}

// FuzzForkEquivalence drives random read/write/flush scripts across a
// Snapshot/Fork boundary and asserts the forked platform replays the exact
// HitLevel/latency/MEE/value stream of a fresh platform that never forked.
// This is the tentpole invariant — forking is behaviorally invisible —
// probed with adversarial access patterns instead of the fixed ones in
// fork_test. The parent keeps running between the snapshot and the forks,
// as Snapshot allows, so state it shares copy-on-write with the snapshot
// (DRAM pages, LLC line buffers) must stay frozen.
func FuzzForkEquivalence(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint64(42), []byte{255, 128, 64, 32}, []byte{9, 9, 9, 9, 9, 9})
	f.Add(uint64(7), []byte{}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, seed uint64, warmBytes, probeBytes []byte) {
		seed %= 1 << 20 // keep configs in a sane, fast regime

		boot := func() (*Platform, *Process, *enclave.Enclave) {
			p := New(DefaultConfig(seed))
			pr := p.NewProcess("fuzz")
			e, err := pr.CreateEnclave(32)
			if err != nil {
				t.Fatal(err)
			}
			return p, pr, e
		}
		_, _, e0 := boot()
		size := enclave.VAddr(e0.Size())
		warmOps := decodeFuzzOps(warmBytes, 192, size)
		probeOps := decodeFuzzOps(probeBytes, 192, size)

		// warm runs the shared prefix on a platform and returns the saved
		// resume point.
		warm := func(p *Platform, pr *Process, e *enclave.Enclave) (ThreadState, sim.Cycles) {
			var st ThreadState
			var end sim.Cycles
			p.SpawnThread("warm", pr, 0, func(th *Thread) {
				th.EnterEnclave()
				playFuzzOps(th, e.Base, warmOps)
				st, end = th.State(), th.Now()
			})
			p.Run(-1)
			return st, end
		}
		probe := func(p *Platform, st ThreadState, start sim.Cycles) []fuzzStep {
			pr := p.Procs()[0]
			e := pr.Enclave()
			var out []fuzzStep
			p.ResumeThread("probe", pr, start, st, func(th *Thread) {
				out = playFuzzOps(th, e.Base, probeOps)
			})
			p.Run(-1)
			return out
		}

		// Fresh platform: warm then probe, no fork anywhere.
		pf, prf, ef := boot()
		stf, endf := warm(pf, prf, ef)
		want := probe(pf, stf, endf)

		// Forked platform: identical warm, snapshot, let the parent run on,
		// then probe a fork.
		ps, prs, es := boot()
		sts, ends := warm(ps, prs, es)
		if sts != stf || ends != endf {
			t.Fatalf("warm phase not reproducible: %+v@%d vs %+v@%d", sts, ends, stf, endf)
		}
		snap := ps.Snapshot()
		churnParent(ps, sts, ends, probeOps)
		got := probe(snap.Fork(), sts, ends)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("op %d diverged: fork %+v, fresh %+v", i, got[i], want[i])
				}
			}
			t.Fatalf("fork stream length %d, fresh %d", len(got), len(want))
		}

		// A second fork of the same snapshot replays the same stream.
		if again := probe(snap.Fork(), sts, ends); !reflect.DeepEqual(again, want) {
			t.Fatal("second fork of the same snapshot diverged")
		}
	})
}

package platform

import (
	"fmt"
	"maps"

	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/sim"
)

// Snapshot is a frozen deep copy of a platform's warm state, taken at a
// quiescent point: no actors pending in the engine and no thread mid-
// instruction. Fork stamps out independent platforms from it; each fork
// resumes the RNG stream exactly where the parent left it, so a fork
// behaves cycle-for-cycle like the parent would have. Snapshots may be
// forked any number of times, concurrently, and the parent platform may
// keep running after the snapshot. DRAM pages, every cache level's set
// blocks (CPU caches and the MEE cache) and LLC line-buffer blocks are
// shared copy-on-write on both sides, so a snapshot and each fork copy only
// what they write. Everything else is copied at snapshot and fork time: the
// flat per-set masks, counters and block indexes of each cache, the MEE
// node buffers and init bitmap, the EPC allocator, the sparse
// general-frame bitmap and the page tables.
//
// Observability does not carry across: forks boot with a nil Observer.
type Snapshot struct {
	cfg      Config
	rngState []byte
	mem      *dram.Snapshot
	mee      *mee.Engine         // frozen copy; never runs
	caches   *cpucache.Hierarchy // frozen copy; never runs
	epc      *enclave.EPCAllocator
	genUsed  map[uint64]uint64
	prmBase  dram.Addr
	procs    []procSnap
	nextEID  int
	nextPID  int
}

// procSnap freezes one process (page table, address-space cursors, enclave
// metadata) without its platform backpointer.
type procSnap struct {
	name     string
	pid      int
	pt       *enclave.PageTable
	heapNext enclave.VAddr
	enclNext enclave.VAddr
	encl     *enclave.Enclave // copied value, nil if none
}

// Snapshot captures the platform's current state. The caller must ensure
// the engine is quiescent: every spawned actor has run to completion (or
// the engine was never run). Snapshotting with actors pending panics,
// because their closures capture the parent platform and cannot be carried
// into a fork.
func (p *Platform) Snapshot() *Snapshot {
	if n := p.eng.Live(); n != 0 {
		panic(fmt.Sprintf("platform: Snapshot with %d actors still live", n))
	}
	cfg := p.cfg
	cfg.Obs = nil
	s := &Snapshot{
		cfg:      cfg,
		rngState: p.eng.RNGSnapshot(),
		mem:      p.mem.Snapshot(),
		mee:      p.mee.Snapshot(),
		caches:   p.caches.Snapshot(),
		epc:      p.epc.Clone(),
		genUsed:  maps.Clone(p.genUsed),
		prmBase:  p.prmBase,
		procs:    make([]procSnap, len(p.procs)),
		nextEID:  p.nextEID,
		nextPID:  p.nextPID,
	}
	for i, pr := range p.procs {
		s.procs[i] = procSnap{
			name:     pr.name,
			pid:      pr.pid,
			pt:       pr.pt.Clone(),
			heapNext: pr.heapNext,
			enclNext: pr.enclNext,
		}
		if pr.encl != nil {
			e := *pr.encl
			s.procs[i].encl = &e
		}
	}
	return s
}

// Fork builds an independent platform from the snapshot. The fork's engine
// starts at cycle zero with an empty actor table (spawn ids restart at 0)
// and the RNG stream resumed from the snapshot point; its memory system,
// caches, MEE, EPC allocator, and processes are independent copies (DRAM
// pages and cache blocks shared copy-on-write). Fork only reads
// the snapshot, so forks may be taken from several goroutines at once.
// Threads are not carried over — respawn them with ResumeThread from saved
// ThreadState.
func (s *Snapshot) Fork() *Platform {
	eng, err := sim.NewEngineResumed(s.rngState)
	if err != nil {
		panic(fmt.Sprintf("platform: Fork: %v", err))
	}
	rng := eng.Rand()
	mem := s.mem.Fork()
	p := &Platform{
		cfg:     s.cfg,
		eng:     eng,
		mem:     mem,
		mee:     s.mee.Fork(mem, rng),
		caches:  s.caches.Fork(rng),
		epc:     s.epc.Clone(),
		genUsed: maps.Clone(s.genUsed),
		prmBase: s.prmBase,
		procs:   make([]*Process, len(s.procs)),
		nextEID: s.nextEID,
		nextPID: s.nextPID,
		rng:     rng,
	}
	for i, ps := range s.procs {
		pr := &Process{
			plat:     p,
			name:     ps.name,
			pid:      ps.pid,
			pt:       ps.pt.Clone(),
			heapNext: ps.heapNext,
			enclNext: ps.enclNext,
		}
		if ps.encl != nil {
			e := *ps.encl
			pr.encl = &e
		}
		p.procs[i] = pr
	}
	return p
}

// Procs returns the platform's processes in creation order. Forked
// platforms preserve indices, so callers resuming work after a Fork address
// the fork's copy of a process by the index it had on the parent.
func (p *Platform) Procs() []*Process { return p.procs }

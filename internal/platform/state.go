package platform

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"meecc/internal/cache"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/sim"
)

// ProcState is the serializable image of one frozen process.
type ProcState struct {
	Name     string
	PID      int
	PT       []enclave.PTE
	HeapNext enclave.VAddr
	EnclNext enclave.VAddr
	Encl     *enclave.Enclave // nil if none
}

// SnapshotState is the stable codec surface for platform snapshots: every
// field a serializer needs to rebuild a Snapshot, as plain data. The machine
// Config is carried with Obs and the MEE policy object stripped: the MEE
// cache image records the policy by name. What the config's seed fixes at
// boot, the MEE's keys and the EPC's frame order, is not carried: decode
// draws it again (bootDraws).
type SnapshotState struct {
	Cfg      Config
	RNGState []byte
	Mem      *dram.SnapshotState
	MEE      *mee.State
	Caches   *cpucache.State
	EPC      *enclave.EPCState
	GenUsed  []cache.Word // nonzero words of the general-frame bitmap
	Procs    []ProcState
	NextEID  int
	NextPID  int
}

// ExportState flattens the snapshot for serialization into a deep copy.
func (s *Snapshot) ExportState() *SnapshotState {
	cfg := s.cfg
	cfg.Obs = nil
	cfg.MEE.Policy = nil
	st := &SnapshotState{
		Cfg:      cfg,
		RNGState: append([]byte(nil), s.rngState...),
		Mem:      s.mem.ExportState(),
		MEE:      s.mee.ExportState(),
		Caches:   s.caches.ExportState(),
		EPC:      s.epc.ExportState(),
		GenUsed:  make([]cache.Word, 0, len(s.genUsed)),
		NextEID:  s.nextEID,
		NextPID:  s.nextPID,
	}
	for i, w := range s.genUsed {
		st.GenUsed = append(st.GenUsed, cache.Word{Index: int(i), Value: w})
	}
	slices.SortFunc(st.GenUsed, func(a, b cache.Word) int { return a.Index - b.Index })
	for _, pr := range s.procs {
		ps := ProcState{
			Name:     pr.name,
			PID:      pr.pid,
			PT:       pr.pt.Entries(),
			HeapNext: pr.heapNext,
			EnclNext: pr.enclNext,
		}
		if pr.encl != nil {
			e := *pr.encl
			ps.Encl = &e
		}
		st.Procs = append(st.Procs, ps)
	}
	return st
}

// SnapshotFromState rebuilds a forkable Snapshot from a serialized image.
// Derived structures — the integrity-tree geometry, the working crypto
// keys and the EPC's frame order — are recomputed from the config and its
// seed rather than trusted from the image, and the rules across components
// that the codec cannot express (checkConfig, cache geometry, one buffer
// per valid way, MEE tags in range, EPC frames handed out before the
// cursor and page-table frames in range; DESIGN.md §9 lists them) are
// revalidated, so a corrupted image yields an error, never a machine that
// breaks one.
func SnapshotFromState(st *SnapshotState) (*Snapshot, error) {
	cfg := st.Cfg
	cfg.Obs = nil
	geom, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}
	if st.MEE == nil || st.Mem == nil || st.Caches == nil || st.EPC == nil || st.MEE.Cache == nil {
		return nil, fmt.Errorf("platform: snapshot image missing a component state")
	}
	pol, err := cache.PolicyByName(st.MEE.Cache.PolicyName, rand.New(rand.NewPCG(0, 0)))
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	cfg.MEE.Policy = pol
	if err := cache.CheckWords(st.GenUsed, genWords(geom.PRMBase)); err != nil {
		return nil, fmt.Errorf("platform: general-frame bitmap: %w", err)
	}
	mem, err := dram.SnapshotFromState(st.Mem)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	crypt, boot := bootDraws(cfg, geom, sim.NewEngine(cfg.Seed).Rand())
	meeEng, err := mee.EngineFromState(cfg.MEE, geom, crypt, st.MEE)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	caches, err := cpucache.HierarchyFromState(cfg.CPU, st.Caches)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	epc, err := enclave.EPCFromState(st.EPC, boot, geom.PRMBase)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	s := &Snapshot{
		cfg:      cfg,
		rngState: append([]byte(nil), st.RNGState...),
		mem:      mem,
		mee:      meeEng,
		caches:   caches,
		epc:      epc,
		genUsed:  make(map[uint64]uint64, len(st.GenUsed)),
		prmBase:  geom.PRMBase,
		nextEID:  st.NextEID,
		nextPID:  st.NextPID,
	}
	for _, w := range st.GenUsed {
		s.genUsed[uint64(w.Index)] = w.Value
	}
	for i, ps := range st.Procs {
		pt, err := enclave.PageTableFromEntries(ps.PT, cfg.DRAM.Size)
		if err != nil {
			return nil, fmt.Errorf("platform: proc %d: %w", i, err)
		}
		snap := procSnap{
			name:     ps.Name,
			pid:      ps.PID,
			pt:       pt,
			heapNext: ps.HeapNext,
			enclNext: ps.EnclNext,
		}
		if ps.Encl != nil {
			e := *ps.Encl
			snap.encl = &e
		}
		s.procs = append(s.procs, snap)
	}
	return s, nil
}

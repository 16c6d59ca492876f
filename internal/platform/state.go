package platform

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"meecc/internal/cache"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/itree"
	"meecc/internal/mee"
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
// Config is carried with Obs and the MEE policy object stripped; MEEPolicy
// records the policy by name and Master carries the crypto master key, so
// decode re-derives working keys through the normal NewCrypto path.
type SnapshotState struct {
	Cfg       Config
	MEEPolicy string
	Master    [16]byte
	RNGState  []byte
	Mem       *dram.SnapshotState
	MEE       *mee.State
	Caches    *cpucache.State
	EPC       *enclave.EPCState
	GenUsed   []cache.Word // nonzero words of the general-frame bitmap
	Procs     []ProcState
	NextEID   int
	NextPID   int
}

// ExportState flattens the snapshot for serialization. The image deep-copies
// everything except the EPC frame list, which aliases the allocator's.
func (s *Snapshot) ExportState() *SnapshotState {
	cfg := s.cfg
	cfg.Obs = nil
	cfg.MEE.Policy = nil
	meeSt := s.mee.ExportState()
	st := &SnapshotState{
		Cfg:       cfg,
		MEEPolicy: meeSt.Cache.PolicyName,
		Master:    s.mee.CryptoMaster(),
		RNGState:  append([]byte(nil), s.rngState...),
		Mem:       s.mem.ExportState(),
		MEE:       meeSt,
		Caches:    s.caches.ExportState(),
		EPC:       s.epc.ExportState(),
		GenUsed:   make([]cache.Word, 0, len(s.genUsed)),
		NextEID:   s.nextEID,
		NextPID:   s.nextPID,
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
// Derived structures — the integrity-tree geometry and the working crypto
// keys — are recomputed from the config and master key rather than trusted
// from the image, and every cross-component invariant the codec cannot
// express (core count, PRM placement, bitmap sizes, cache geometry) is
// revalidated, so a corrupted image yields an error, never a silently
// inconsistent machine.
func SnapshotFromState(st *SnapshotState) (*Snapshot, error) {
	cfg := st.Cfg
	cfg.Obs = nil
	if cfg.CPU.Cores != Cores {
		return nil, fmt.Errorf("platform: cpu cores %d, want %d", cfg.CPU.Cores, Cores)
	}
	if cfg.DRAM.Size < PRMSize {
		return nil, fmt.Errorf("platform: dram size %d below the %d-byte PRM", cfg.DRAM.Size, PRMSize)
	}
	prmBase := dram.Addr(cfg.DRAM.Size - PRMSize)
	geom, err := itree.NewGeometry(prmBase, PRMSize, EPCSize)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	if st.MEE == nil || st.Mem == nil || st.Caches == nil || st.EPC == nil {
		return nil, fmt.Errorf("platform: snapshot image missing a component state")
	}
	if st.MEE.Cache == nil || st.MEE.Cache.PolicyName != st.MEEPolicy {
		return nil, fmt.Errorf("platform: MEE policy name mismatch")
	}
	pol, err := cache.PolicyByName(st.MEEPolicy, rand.New(rand.NewPCG(0, 0)))
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	cfg.MEE.Policy = pol
	if err := cache.CheckWords(st.GenUsed, genWords(prmBase)); err != nil {
		return nil, fmt.Errorf("platform: general-frame bitmap: %w", err)
	}
	mem, err := dram.SnapshotFromState(st.Mem)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	meeEng, err := mee.EngineFromState(cfg.MEE, geom, itree.NewCrypto(st.Master), st.MEE)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	caches, err := cpucache.HierarchyFromState(cfg.CPU, st.Caches)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	epc, err := enclave.EPCFromState(st.EPC)
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
		prmBase:  prmBase,
		nextEID:  st.NextEID,
		nextPID:  st.NextPID,
	}
	for _, w := range st.GenUsed {
		s.genUsed[uint64(w.Index)] = w.Value
	}
	for i, ps := range st.Procs {
		pt, err := enclave.PageTableFromEntries(ps.PT)
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

package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"

	"meecc/internal/cache"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/sim"
	"meecc/internal/wire"
)

// AppendImage appends the snapshot's image to w. In order: the machine
// config as JSON, with Obs and the MEE policy object stripped (the MEE
// cache's image names the policy); the random stream's state; the images
// of DRAM, the MEE, the CPU caches and the EPC allocator; the nonzero words
// of the general-frame bitmap; the processes, counted, each its name, PID,
// page table, heap and enclave cursors and its enclave, if any; and the
// next enclave and process IDs. What the config's seed fixes at boot, the
// MEE's keys and the EPC's frame order, is not in it: ReadSnapshot draws
// it again (bootDraws).
func (s *Snapshot) AppendImage(w *wire.Writer) error {
	cfg := s.cfg
	cfg.Obs = nil
	cfg.MEE.Policy = nil
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return fmt.Errorf("platform: marshaling config: %w", err)
	}
	w.Blob(cfgJSON)
	w.Blob(s.rngState)
	s.mem.AppendImage(w)
	s.mee.AppendImage(w)
	s.caches.AppendImage(w)
	s.epc.AppendImage(w)
	w.SparseMap(s.genUsed)
	w.U64(uint64(len(s.procs)))
	for _, p := range s.procs {
		w.String(p.name)
		w.I64(int64(p.pid))
		p.pt.AppendImage(w)
		w.U64(uint64(p.heapNext))
		w.U64(uint64(p.enclNext))
		w.Bool(p.encl != nil)
		if p.encl != nil {
			w.I64(int64(p.encl.ID))
			w.U64(uint64(p.encl.Base))
			w.I64(int64(p.encl.Pages))
		}
	}
	w.I64(int64(s.nextEID))
	w.I64(int64(s.nextPID))
	return nil
}

// ReadSnapshot reads the image AppendImage appends and rebuilds a forkable
// snapshot from it. What the image leaves out — the integrity-tree
// geometry, the working crypto keys and the EPC's frame order — is derived
// again from the config and its seed. The config's rules (checkConfig) are
// checked before anything is sized by it, each component's reader checks
// the rules of its structure (and the config's ways and banks, which
// checkConfig leaves open, against its image before they size anything),
// and this one those of the general-frame bitmap and the page tables'
// frames (DESIGN.md §9 lists them all), so a corrupted image yields an
// error wrapping wire.ErrCorrupt, never a machine that breaks one.
func ReadSnapshot(r *wire.Reader) (*Snapshot, error) {
	s, err := readSnapshot(r)
	if err != nil && !errors.Is(err, wire.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %v", wire.ErrCorrupt, err)
	}
	return s, err
}

func readSnapshot(r *wire.Reader) (*Snapshot, error) {
	var cfg Config
	cfgJSON := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("platform: config: %v", err)
	}
	cfg.Obs = nil
	geom, err := checkConfig(cfg)
	if err != nil {
		return nil, err
	}
	rngState := bytes.Clone(r.Blob())
	mem, err := dram.ReadSnapshot(r, cfg.DRAM)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	crypt, boot := bootDraws(cfg, geom, sim.NewEngine(cfg.Seed).Rand())
	meeEng, err := mee.ReadEngine(r, cfg.MEE, geom, crypt)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	// ReadImage built the MEE cache's policy from this name, so it is one
	// PolicyByName knows.
	cfg.MEE.Policy, _ = cache.PolicyByName(meeEng.Cache().PolicyName(), rand.New(rand.NewPCG(0, 0)))
	caches, err := cpucache.ReadHierarchy(r, cfg.CPU)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	epc, err := enclave.ReadEPC(r, boot, geom.PRMBase)
	if err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	s := &Snapshot{
		cfg:      cfg,
		rngState: rngState,
		mem:      mem,
		mee:      meeEng,
		caches:   caches,
		epc:      epc,
		genUsed:  make(map[uint64]uint64),
		prmBase:  geom.PRMBase,
	}
	r.SparseWords(genWords(geom.PRMBase), func(i int, v uint64) { s.genUsed[uint64(i)] = v })
	for n, i := r.Count(1), 0; i < n && r.Err() == nil; i++ {
		p := procSnap{name: r.String()}
		p.pid = int(r.I64())
		if p.pt, err = enclave.ReadPageTable(r, cfg.DRAM.Size); err != nil {
			return nil, fmt.Errorf("platform: proc %d: %w", i, err)
		}
		p.heapNext = enclave.VAddr(r.U64())
		p.enclNext = enclave.VAddr(r.U64())
		if r.Bool() {
			p.encl = &enclave.Enclave{ID: int(r.I64())}
			p.encl.Base = enclave.VAddr(r.U64())
			p.encl.Pages = int(r.I64())
		}
		s.procs = append(s.procs, p)
	}
	s.nextEID = int(r.I64())
	s.nextPID = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

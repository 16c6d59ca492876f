package mee

import (
	"fmt"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/sim"
)

// BufState is one resident node buffer in a serialized engine image,
// addressed by its dense [set*ways+way] slot.
type BufState struct {
	Idx     int
	Addr    dram.Addr
	Kind    itree.NodeKind
	Counter itree.CounterLine
	Tags    itree.TagLine
	Dirty   bool
}

// State is the serializable image of an Engine, excluding what the platform
// reconstructs around it: config, geometry, crypto, and the DRAM binding.
type State struct {
	Cache       *cache.State
	Bufs        []BufState // ascending Idx
	Root        []uint64
	Initialized []uint64
	PortBusy    sim.Cycles
	Stats       Stats
}

// CryptoMaster returns the master key the engine's crypto was derived from,
// for snapshot serialization.
func (e *Engine) CryptoMaster() [16]byte { return e.crypt.Master() }

// ExportState captures the engine as a deep-copied State.
func (e *Engine) ExportState() *State {
	st := &State{
		Cache:       e.cache.ExportState(),
		Root:        make([]uint64, len(e.root)),
		Initialized: make([]uint64, len(e.initialized)),
		PortBusy:    e.port.BusyUntil(),
		Stats:       e.stats,
	}
	copy(st.Root, e.root)
	copy(st.Initialized, e.initialized)
	for i := range e.bufs {
		nb := &e.bufs[i]
		if !nb.valid {
			continue
		}
		st.Bufs = append(st.Bufs, BufState{
			Idx:     i,
			Addr:    nb.addr,
			Kind:    nb.kind,
			Counter: nb.counter,
			Tags:    nb.tags,
			Dirty:   nb.dirty,
		})
	}
	return st
}

// EngineFromState rebuilds a frozen engine from a serialized image. cfg,
// geom, and crypt come from the platform-level decode (they are derived from
// the machine config and master key, not stored per-engine); the result has
// no DRAM binding and never runs — Fork rebinds it to a live memory and RNG.
// A geometry New would refuse, and mismatches between cfg and the image, are
// reported as errors.
func EngineFromState(cfg Config, geom itree.Geometry, crypt *itree.Crypto, st *State) (*Engine, error) {
	if err := checkGeometry(cfg); err != nil {
		return nil, err
	}
	if st.Cache == nil {
		return nil, fmt.Errorf("mee: missing cache state")
	}
	if st.Cache.Sets != cfg.CacheSets || st.Cache.Ways != cfg.CacheWays {
		return nil, fmt.Errorf("mee: cache state %dx%d does not match config %dx%d",
			st.Cache.Sets, st.Cache.Ways, cfg.CacheSets, cfg.CacheWays)
	}
	c, err := cache.FromState(st.Cache, nil)
	if err != nil {
		return nil, fmt.Errorf("mee: %w", err)
	}
	if len(st.Root) != geom.RootCounters {
		return nil, fmt.Errorf("mee: %d root counters, want %d", len(st.Root), geom.RootCounters)
	}
	if want := int((geom.PRMSize/itree.LineSize + 63) / 64); len(st.Initialized) != want {
		return nil, fmt.Errorf("mee: init bitmap %d words, want %d", len(st.Initialized), want)
	}
	e := &Engine{
		cfg:         cfg,
		geom:        geom,
		halfMask:    uint64(cfg.CacheSets/2 - 1),
		crypt:       crypt,
		cache:       c,
		bufs:        make([]nodeBuf, cfg.CacheSets*cfg.CacheWays),
		root:        make([]uint64, len(st.Root)),
		initialized: make([]uint64, len(st.Initialized)),
		port:        sim.ResumeResource(st.PortBusy),
		stats:       st.Stats,
	}
	copy(e.root, st.Root)
	copy(e.initialized, st.Initialized)
	last := -1
	for _, b := range st.Bufs {
		if b.Idx <= last || b.Idx >= len(e.bufs) {
			return nil, fmt.Errorf("mee: buffer slot %d out of order or range", b.Idx)
		}
		last = b.Idx
		e.bufs[b.Idx] = nodeBuf{
			addr:    b.Addr,
			kind:    b.Kind,
			counter: b.Counter,
			tags:    b.Tags,
			dirty:   b.Dirty,
			valid:   true,
		}
		e.nBufs++
	}
	return e, nil
}

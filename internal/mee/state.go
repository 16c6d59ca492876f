package mee

import (
	"fmt"
	"slices"

	"meecc/internal/cache"
	"meecc/internal/itree"
	"meecc/internal/sim"
)

// BufState is the content of one resident node buffer in a serialized
// engine image. Which line it holds, and whether it is dirty, is the cache
// image's record: the buffer belongs to the valid way it is listed for.
type BufState struct {
	Counter itree.CounterLine
	Tags    itree.TagLine
}

// State is the serializable image of an Engine, excluding what the platform
// reconstructs around it: config, geometry, crypto, and the DRAM binding.
// The init bitmap travels as its nonzero words.
type State struct {
	Cache       *cache.State
	Bufs        []BufState // one per valid way of Cache, in [set*ways+way] order
	Root        []uint64
	Initialized []cache.Word
	PortBusy    sim.Cycles
	Stats       Stats
}

// ExportState captures the engine as a deep-copied State.
func (e *Engine) ExportState() *State {
	st := &State{
		Cache:       e.cache.ExportState(),
		Bufs:        make([]BufState, 0, e.cache.ValidCount()),
		Root:        slices.Clone(e.root),
		Initialized: cache.SparseWords(e.initialized),
		PortBusy:    e.port.BusyUntil(),
		Stats:       e.stats,
	}
	e.cache.Lines(func(set, way int, _ cache.Line) {
		nb := &e.bufs[e.bufIdx(set, way)]
		st.Bufs = append(st.Bufs, BufState{Counter: nb.counter, Tags: nb.tags})
	})
	return st
}

// EngineFromState rebuilds a frozen engine from a serialized image. cfg,
// geom, and crypt come from the platform-level decode (they are derived from
// the machine config and its seed, not stored per-engine); the result has
// no DRAM binding and never runs — Fork rebinds it to a live memory and RNG.
// A geometry New would refuse, mismatches between cfg and the image, a
// cache tag that names no tree line of its set, and a buffer list that is
// not one buffer per valid way are reported as errors. A buffer's line is
// dirty when its way is: the cache image is the only record of both.
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
	e := &Engine{
		cfg:         cfg,
		geom:        geom,
		halfMask:    uint64(cfg.CacheSets/2 - 1),
		crypt:       crypt,
		cache:       c,
		bufs:        make([]nodeBuf, cfg.CacheSets*cfg.CacheWays),
		root:        slices.Clone(st.Root),
		initialized: make([]uint64, (geom.PRMSize/itree.LineSize+63)/64),
		port:        sim.ResumeResource(st.PortBusy),
		stats:       st.Stats,
	}
	if err := cache.FillWords(e.initialized, st.Initialized); err != nil {
		return nil, fmt.Errorf("mee: init bitmap: %w", err)
	}
	if len(st.Bufs) != c.ValidCount() {
		return nil, fmt.Errorf("mee: %d node buffers for %d valid cache lines", len(st.Bufs), c.ValidCount())
	}
	var bad error
	i := 0
	c.Lines(func(set, way int, l cache.Line) {
		// The tag is the only record of the line the buffer holds.
		addr := tagAddr(l.Tag)
		k := geom.Classify(addr)
		if k == itree.KindData || k == itree.KindOutside || e.cacheTag(addr) != l.Tag || e.CacheSetFor(addr) != set {
			bad = fmt.Errorf("mee: set %d way %d holds %#x, no tree line of that set", set, way, addr)
		}
		b := &st.Bufs[i]
		e.bufs[e.bufIdx(set, way)] = nodeBuf{counter: b.Counter, tags: b.Tags}
		i++
	})
	if bad != nil {
		return nil, bad
	}
	return e, nil
}

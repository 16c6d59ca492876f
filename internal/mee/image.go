package mee

import (
	"fmt"

	"meecc/internal/cache"
	"meecc/internal/itree"
	"meecc/internal/sim"
	"meecc/internal/wire"
)

// bufWire is one node buffer on the wire: counters and MAC, then tags.
const bufWire = (itree.CountersPerLine+1)*8 + itree.CountersPerLine*8

// AppendImage appends the engine's image to w, all but what the platform
// rebuilds around it (config, geometry, crypto and the DRAM binding): the
// MEE cache's image; the node buffers, one per valid way in way order, each
// its counter line and its tag line, whose line the way's tag names and
// whose dirty bit is the way's; the root counters; the init bitmap's
// nonzero words; the port's busy-until clock and the statistics.
func (e *Engine) AppendImage(w *wire.Writer) {
	e.cache.AppendImage(w)
	w.U64(uint64(e.cache.ValidCount()))
	e.cache.Lines(func(set, way int, _ cache.Line) {
		b := &e.bufs[e.bufIdx(set, way)]
		for _, c := range b.counter.Counters {
			w.U64(c)
		}
		w.U64(b.counter.MAC)
		for _, t := range b.tags.Tags {
			w.U64(t)
		}
	})
	w.U64s(e.root)
	w.SparseWords(e.initialized)
	w.I64(int64(e.port.BusyUntil()))
	w.U64(e.stats.Reads)
	w.U64(e.stats.Writes)
	for _, h := range e.stats.HitsAt {
		w.U64(h)
	}
	w.U64(e.stats.Writebacks)
	w.U64(e.stats.Violations)
	w.I64(int64(e.stats.StallCyc))
}

// ReadEngine reads the image AppendImage appends and rebuilds the engine as
// a frozen one. cfg, geom and crypt come from the platform-level decode
// (they derive from the machine config and its seed, not from the image);
// the result has no DRAM binding and never runs — Fork rebinds it to a live
// memory and RNG. A geometry New refuses (checkGeometry), a cache image
// that cache.ReadImage rejects or whose geometry is not cfg's, a cache tag
// that names no tree line of its set, a buffer count other than one per
// valid way, a root of another length than geom's and a malformed init
// bitmap are errors. A buffer's line is dirty when its way is: the cache
// image is the only record of both.
func ReadEngine(r *wire.Reader, cfg Config, geom itree.Geometry, crypt *itree.Crypto) (*Engine, error) {
	if err := checkGeometry(cfg); err != nil {
		return nil, err
	}
	c, err := cache.ReadImage(r, cfg.CacheSets, cfg.CacheWays)
	if err != nil {
		return nil, fmt.Errorf("mee: %w", err)
	}
	e := &Engine{
		cfg:         cfg,
		geom:        geom,
		halfMask:    uint64(cfg.CacheSets/2 - 1),
		crypt:       crypt,
		cache:       c,
		bufs:        make([]nodeBuf, cfg.CacheSets*cfg.CacheWays),
		initialized: make([]uint64, (geom.PRMSize/itree.LineSize+63)/64),
	}
	if n := r.Count(bufWire); r.Err() == nil && n != c.ValidCount() {
		return nil, fmt.Errorf("mee: %d node buffers for %d valid cache lines", n, c.ValidCount())
	}
	var bad error
	c.Lines(func(set, way int, l cache.Line) {
		// The tag is the only record of the line the buffer holds.
		addr := tagAddr(l.Tag)
		k := geom.Classify(addr)
		if k == itree.KindData || k == itree.KindOutside || e.cacheTag(addr) != l.Tag || e.CacheSetFor(addr) != set {
			if bad == nil {
				bad = fmt.Errorf("mee: set %d way %d holds %#x, no tree line of that set", set, way, addr)
			}
			return
		}
		b := &e.bufs[e.bufIdx(set, way)]
		for j := range b.counter.Counters {
			b.counter.Counters[j] = r.U64()
		}
		b.counter.MAC = r.U64()
		for j := range b.tags.Tags {
			b.tags.Tags[j] = r.U64()
		}
	})
	if bad != nil {
		return nil, bad
	}
	if e.root = r.U64s(); r.Err() == nil && len(e.root) != geom.RootCounters {
		return nil, fmt.Errorf("mee: %d root counters, want %d", len(e.root), geom.RootCounters)
	}
	r.SparseWords(len(e.initialized), func(i int, v uint64) { e.initialized[i] = v })
	e.port = sim.ResumeResource(sim.Cycles(r.I64()))
	e.stats.Reads = r.U64()
	e.stats.Writes = r.U64()
	for i := range e.stats.HitsAt {
		e.stats.HitsAt[i] = r.U64()
	}
	e.stats.Writebacks = r.U64()
	e.stats.Violations = r.U64()
	e.stats.StallCyc = sim.Cycles(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

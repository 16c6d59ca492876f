// Package cpucache models the on-chip CPU cache hierarchy: per-core L1D and
// L2 plus a shared, inclusive last-level cache. The covert channel needs it
// for two reasons: enclave lines that hit in these caches never reach the
// MEE (challenge 1 in Section 3 of the paper), and clflush — which evicts a
// line from every level but does NOT touch the MEE cache — is what forces
// every probe to take the main-memory path.
//
// Functionally, the hierarchy keeps a plaintext mirror of every resident
// line; protected-region lines are decrypted by the MEE on fill and
// re-encrypted on dirty writeback, so DRAM only ever holds ciphertext for
// the protected region. The mirror is one block of line buffers per LLC
// set, materialized on the set's first fill and shared copy-on-write
// between a snapshot and its forks (cache.Blocks, as the cache levels keep
// their own sets), so a fork pays only for the sets it writes.
package cpucache

import (
	"fmt"
	"math/rand/v2"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// Level identifies where an access hit.
type Level int

const (
	HitL1 Level = iota
	HitL2
	HitLLC
	Miss
)

func (l Level) String() string {
	switch l {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	default:
		return "miss"
	}
}

// Config describes the hierarchy's geometry. The defaults model the
// paper's i7-6700K (Skylake): 32 KB 8-way L1D, 256 KB 4-way L2, 8 MB
// 16-way shared inclusive LLC. Every level's set count must be a power of
// two: set indexes are the line address masked to the level.
type Config struct {
	Cores   int
	L1Sets  int
	L1Ways  int
	L2Sets  int
	L2Ways  int
	LLCSets int
	LLCWays int
}

// Latencies in cycles, as the issuing core observes them.
const (
	L1Lat    = 4
	L2Lat    = 14
	LLCLat   = 42
	MissLat  = 50 // traversal cost charged before the memory system takes over
	FlushLat = 35 // clflush
)

// DefaultConfig returns the Skylake-like geometry for the given core count.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:  cores,
		L1Sets: 64, L1Ways: 8,
		L2Sets: 1024, L2Ways: 4,
		LLCSets: 8192, LLCWays: 16,
	}
}

// Victim is a line leaving the hierarchy toward memory. Pointers returned by
// Fill and Flush alias a scratch field inside the Hierarchy and are valid
// only until the next Fill, Flush, or Repage-driven drop; callers must
// consume (or copy) the victim before touching the hierarchy again. Data
// holds the line's content only when Dirty: a clean victim has nothing to
// write back, so its bytes are not copied out.
type Victim struct {
	Addr  dram.Addr
	Data  [dram.LineSize]byte
	Dirty bool
}

// maxCores is the presence-mask width: lineBuf.cores has one bit per core.
const maxCores = 16

type lineBuf struct {
	data  [dram.LineSize]byte
	dirty bool
	// valid marks the slot occupied; the slot's way is implied by its
	// position in the set's block, and a set never filled reads as a block
	// of invalid slots.
	valid bool
	// cores is a conservative mask of cores whose private L1/L2 may still
	// hold the line: a set bit means "maybe present", a clear bit means
	// "definitely absent". It lets flushes and back-invalidations skip the
	// private-cache scans that would find nothing — pure host-side
	// bookkeeping with no effect on simulated state or statistics (a no-op
	// Invalidate touches neither replacement state nor counters). It is dead
	// state while the slot is invalid.
	cores uint16
}

// Hierarchy is the multi-core cache stack. Not safe for concurrent use; the
// simulation engine serializes all actors.
type Hierarchy struct {
	cfg Config
	// l1Mask, l2Mask and llcMask are each level's set count minus one: a
	// line's set is its line address masked to the level.
	l1Mask, l2Mask, llcMask uint64

	l1  []*cache.Cache
	l2  []*cache.Cache
	llc *cache.Cache
	// bufs mirrors plaintext content and dirtiness of every LLC-resident
	// line (inclusive LLC means LLC residency == hierarchy residency): one
	// block of LLCWays buffers per LLC set, way for way with the LLC's
	// lines.
	bufs cache.Blocks[lineBuf]
	// freeBufs tracks how deep the pointer-era recycling free list would be,
	// so the linebuf alloc/recycled observability counters keep their exact
	// historical semantics now that slots are block-resident.
	freeBufs int
	// victim is the scratch Victim that Fill/Flush drops fill.
	victim Victim

	// Observability (nil when disabled): free-list churn and clflush
	// counters; per-level cache statistics surface as deferred samples.
	cBufAlloc   *obs.Counter
	cBufRecycle *obs.Counter
	cFlush      *obs.Counter
}

// countInstall and countDrop keep the linebuf churn counters bit-compatible
// with the pointer-era free list: an install recycles when a drop preceded
// it, and allocates otherwise.
func (h *Hierarchy) countInstall() {
	if h.freeBufs > 0 {
		h.freeBufs--
		h.cBufRecycle.Inc()
		return
	}
	h.cBufAlloc.Inc()
}

func (h *Hierarchy) countDrop() { h.freeBufs++ }

// allCores is the mask with every core's bit set.
func (h *Hierarchy) allCores() uint16 { return uint16(1)<<h.cfg.Cores - 1 }

// checkConfig is the one geometry rule New and HierarchyFromState share: a
// core count the presence masks can represent, and power-of-two set counts
// at every level, which the masked set indexes rely on. Ways are the cache
// package's to check.
func checkConfig(cfg Config) error {
	if cfg.Cores <= 0 || cfg.Cores > maxCores {
		return fmt.Errorf("cpucache: core count %d outside 1..%d", cfg.Cores, maxCores)
	}
	for _, sets := range []int{cfg.L1Sets, cfg.L2Sets, cfg.LLCSets} {
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("cpucache: L1/L2/LLC set counts %d/%d/%d must be powers of two", cfg.L1Sets, cfg.L2Sets, cfg.LLCSets)
		}
	}
	return nil
}

// newHierarchy returns a hierarchy of cfg's geometry over bufs, with no
// cache levels yet.
func newHierarchy(cfg Config, bufs cache.Blocks[lineBuf]) *Hierarchy {
	return &Hierarchy{
		cfg:     cfg,
		l1Mask:  uint64(cfg.L1Sets - 1),
		l2Mask:  uint64(cfg.L2Sets - 1),
		llcMask: uint64(cfg.LLCSets - 1),
		bufs:    bufs,
	}
}

// newBufs returns cfg's line-buffer directory with no set filled.
func newBufs(cfg Config) cache.Blocks[lineBuf] {
	return cache.NewBlocks(cfg.LLCSets, make([]lineBuf, cfg.LLCWays))
}

// New builds the hierarchy; policy applies to all levels (LRU by default in
// the platform). It panics on a config checkConfig rejects.
func New(cfg Config, policy cache.Policy) *Hierarchy {
	if err := checkConfig(cfg); err != nil {
		panic(err.Error())
	}
	h := newHierarchy(cfg, newBufs(cfg))
	h.llc = cache.New("llc", cfg.LLCSets, cfg.LLCWays, policy)
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New(fmt.Sprintf("l1d-%d", c), cfg.L1Sets, cfg.L1Ways, policy))
		h.l2 = append(h.l2, cache.New(fmt.Sprintf("l2-%d", c), cfg.L2Sets, cfg.L2Ways, policy))
	}
	return h
}

// Fork returns an independent copy of the hierarchy — every cache level's
// lines, replacement state and statistics, plus the plaintext line buffers —
// for platform forking. rng rebinds randomized replacement policies to the
// fork's stream. Observability is not carried over.
//
// The cache levels' set blocks and the line-buffer blocks are shared with
// h copy-on-write. Fork only reads h, so forks of one frozen hierarchy may
// be taken concurrently; h itself must not run on afterwards (use Snapshot
// for a hierarchy that keeps running).
func (h *Hierarchy) Fork(rng *rand.Rand) *Hierarchy {
	return h.fork(h.bufs.Clone(), func(c *cache.Cache) *cache.Cache { return c.Clone(rng) })
}

// Snapshot returns a frozen copy of the hierarchy to Fork from, and moves h
// and its cache levels to a new generation: every block is then shared, so
// h may keep running and copies a block before its first write, leaving
// the frozen image intact.
func (h *Hierarchy) Snapshot() *Hierarchy {
	return h.fork(h.bufs.Snapshot(), (*cache.Cache).Snapshot)
}

// fork copies h over bufs, each cache level through level.
func (h *Hierarchy) fork(bufs cache.Blocks[lineBuf], level func(*cache.Cache) *cache.Cache) *Hierarchy {
	n := newHierarchy(h.cfg, bufs)
	n.llc = level(h.llc)
	for _, c := range h.l1 {
		n.l1 = append(n.l1, level(c))
	}
	for _, c := range h.l2 {
		n.l2 = append(n.l2, level(c))
	}
	return n
}

// buf returns the buffer of a valid line at an LLC location for reading,
// or nil when the slot holds no line.
func (h *Hierarchy) buf(set, way int) *lineBuf {
	if b := &h.bufs.Read(set)[way]; b.valid {
		return b
	}
	return nil
}

// ownBuf returns the slot at an LLC location for writing. A set's first
// write materializes its block; a block shared with a snapshot or fork is
// copied first, so writes never reach another hierarchy's lines.
func (h *Hierarchy) ownBuf(set, way int) *lineBuf { return &h.bufs.Write(set)[way] }

// locate finds the LLC location of a resident line without touching
// replacement state or statistics; ok is false when the line is absent.
func (h *Hierarchy) locate(addr dram.Addr) (set, way int, ok bool) {
	set = h.llcSet(addr)
	way, ok = h.llc.WayOf(set, h.tag(addr))
	return set, way, ok && h.buf(set, way) != nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Observe attaches an observer: the shared LLC gets the full per-cache
// sample set, the per-core L1/L2 stats are aggregated into summed samples,
// and the hot path gains only nil-checked counters for line-buffer churn and
// clflush. Safe to call with nil.
func (h *Hierarchy) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	h.llc.Observe(o, "llc")
	agg := func(name string, field func(cache.Stats) uint64, caches []*cache.Cache) {
		o.Sample(name, obs.Semantic, func() uint64 {
			var n uint64
			for _, c := range caches {
				n += field(c.Stats())
			}
			return n
		})
	}
	agg("cache.l1.hits", func(s cache.Stats) uint64 { return s.Hits }, h.l1)
	agg("cache.l1.misses", func(s cache.Stats) uint64 { return s.Misses }, h.l1)
	agg("cache.l2.hits", func(s cache.Stats) uint64 { return s.Hits }, h.l2)
	agg("cache.l2.misses", func(s cache.Stats) uint64 { return s.Misses }, h.l2)
	h.cBufAlloc = o.Counter("cpucache.linebuf.alloc")
	h.cBufRecycle = o.Counter("cpucache.linebuf.recycled")
	h.cFlush = o.Counter("cpucache.flushes")
}

// LLC exposes the shared cache for statistics and tests.
func (h *Hierarchy) LLC() *cache.Cache { return h.llc }

// L1 exposes a core's L1D for tests.
func (h *Hierarchy) L1(core int) *cache.Cache { return h.l1[core] }

func lineAddr(addr dram.Addr) dram.Addr { return addr &^ (dram.LineSize - 1) }

func (h *Hierarchy) l1Set(addr dram.Addr) int  { return int(uint64(addr) / dram.LineSize & h.l1Mask) }
func (h *Hierarchy) l2Set(addr dram.Addr) int  { return int(uint64(addr) / dram.LineSize & h.l2Mask) }
func (h *Hierarchy) llcSet(addr dram.Addr) int { return int(uint64(addr) / dram.LineSize & h.llcMask) }

func (h *Hierarchy) tag(addr dram.Addr) cache.Tag {
	return cache.Tag(uint64(addr) / dram.LineSize)
}

// Access looks addr up for core. On any hit it refreshes the line into the
// upper levels, applies the write (marking the line dirty), and returns the
// hit level plus lookup latency. On a miss it returns (Miss, MissLat); the
// caller must fetch the line from the memory system and call Fill.
//
// Writes invalidate the line from every other core's private caches
// (MESI-style write-invalidate), so a reader on another core re-fetches
// from the LLC — the timing that makes the Figure 2(c) hyperthread timer
// cost its ~50 cycles per read.
func (h *Hierarchy) Access(core int, addr dram.Addr, write bool) (Level, sim.Cycles) {
	addr = lineAddr(addr)
	tag := h.tag(addr)
	lvl := Miss
	var lat sim.Cycles
	switch {
	case h.l1[core].Lookup(h.l1Set(addr), tag):
		h.touchShared(core, addr) // keep L2/LLC recency in sync
		lvl, lat = HitL1, L1Lat
	case h.l2[core].Lookup(h.l2Set(addr), tag):
		h.l1[core].Insert(h.l1Set(addr), tag, false)
		h.llc.Lookup(h.llcSet(addr), tag)
		lvl, lat = HitL2, L2Lat
	default:
		set := h.llcSet(addr)
		way, hit := h.llc.LookupWay(set, tag)
		if !hit {
			return Miss, MissLat
		}
		h.l2[core].Insert(h.l2Set(addr), tag, false)
		h.l1[core].Insert(h.l1Set(addr), tag, false)
		// Now privately resident here too; a bit already set needs no write,
		// so a read hit leaves a shared block shared.
		if b := h.buf(set, way); b != nil && b.cores&(1<<uint(core)) == 0 {
			h.ownBuf(set, way).cores |= 1 << uint(core)
		}
		lvl, lat = HitLLC, LLCLat
	}
	if write {
		if set, way, ok := h.locate(addr); ok {
			b := h.ownBuf(set, way)
			b.dirty = true
			h.invalidateOthers(core, addr, b.cores)
			b.cores = 1 << uint(core) // sole private holder after write-invalidate
		} else {
			h.invalidateOthers(core, addr, h.allCores())
		}
	}
	return lvl, lat
}

// invalidateOthers drops the line from every core's private caches except
// the writer's; the line stays in the shared LLC. mask bounds the cores that
// can hold the line — scans for cores with a clear bit are guaranteed misses
// (no state or stat effect) and are skipped.
func (h *Hierarchy) invalidateOthers(writer int, addr dram.Addr, mask uint16) {
	tag := h.tag(addr)
	for c := 0; c < h.cfg.Cores; c++ {
		if c == writer || mask&(1<<uint(c)) == 0 {
			continue
		}
		h.l1[c].Invalidate(h.l1Set(addr), tag)
		h.l2[c].Invalidate(h.l2Set(addr), tag)
	}
}

func (h *Hierarchy) touchShared(core int, addr dram.Addr) {
	tag := h.tag(addr)
	h.l2[core].Lookup(h.l2Set(addr), tag)
	h.llc.Lookup(h.llcSet(addr), tag)
}

// Data returns the plaintext view of a resident line, or nil if the line is
// not cached. The returned array aliases internal state, made private to
// this hierarchy first so a write through it never reaches a snapshot or
// fork; writes must be paired with a write Access so dirtiness is tracked.
func (h *Hierarchy) Data(addr dram.Addr) *[dram.LineSize]byte {
	if set, way, ok := h.locate(lineAddr(addr)); ok {
		return &h.ownBuf(set, way).data
	}
	return nil
}

// Fill installs a line fetched from the memory system into all three levels
// for core, returning any LLC victim that must be written back to memory.
// Inclusive-LLC semantics: the victim is back-invalidated from every core's
// private caches.
func (h *Hierarchy) Fill(core int, addr dram.Addr, data [dram.LineSize]byte, dirty bool) *Victim {
	addr = lineAddr(addr)
	tag := h.tag(addr)
	var victim *Victim
	set := h.llcSet(addr)
	way, ev := h.llc.InsertWay(set, tag, false)
	b := h.ownBuf(set, way)
	mask := uint16(1) << uint(core)
	if ev.Valid {
		// The victim's buffer sits in the slot the new line just took; copy
		// it out before overwriting, then back-invalidate the private caches
		// (the LLC entry is already gone — Insert replaced it). The victim's
		// presence mask bounds which cores can still hold it privately.
		evAddr := dram.Addr(uint64(ev.Tag) * dram.LineSize)
		evTag := h.tag(evAddr)
		for c := 0; c < h.cfg.Cores; c++ {
			if b.cores&(1<<uint(c)) == 0 {
				continue
			}
			h.l1[c].Invalidate(h.l1Set(evAddr), evTag)
			h.l2[c].Invalidate(h.l2Set(evAddr), evTag)
		}
		h.setVictim(evAddr, b)
		h.countDrop()
		victim = &h.victim
	} else if b.valid {
		// Re-filling a still-resident line: other cores may hold it
		// privately, so their mask bits must survive.
		mask |= b.cores
	}
	h.l2[core].Insert(h.l2Set(addr), tag, false)
	h.l1[core].Insert(h.l1Set(addr), tag, false)
	h.countInstall()
	*b = lineBuf{data: data, dirty: dirty, valid: true, cores: mask}
	return victim
}

// Flush implements clflush: the line is invalidated from every level of
// every core. It returns the victim (nil if the line was not cached) and
// the latency charged to the issuing core; the victim aliases the
// hierarchy's scratch Victim. The MEE cache is unaffected — that asymmetry
// is the paper's challenge 1.
//
// One scan of the LLC set finds and invalidates the line. The LLC is
// inclusive and every valid LLC line has a valid buffer (New and
// HierarchyFromState keep both true), so a line the LLC does not hold is
// in no private cache either, and a line it does hold has a buffer whose
// presence mask bounds the private caches to clear.
func (h *Hierarchy) Flush(addr dram.Addr) (*Victim, sim.Cycles) {
	addr = lineAddr(addr)
	h.cFlush.Inc()
	tag := h.tag(addr)
	set := h.llcSet(addr)
	way, _ := h.llc.InvalidateWay(set, tag)
	if way < 0 {
		return nil, FlushLat
	}
	b := h.ownBuf(set, way)
	h.setVictim(addr, b)
	mask := b.cores
	*b = lineBuf{}
	for c := 0; c < h.cfg.Cores; c++ {
		if mask&(1<<uint(c)) == 0 {
			continue
		}
		h.l1[c].Invalidate(h.l1Set(addr), tag)
		h.l2[c].Invalidate(h.l2Set(addr), tag)
	}
	h.countDrop()
	return &h.victim, FlushLat
}

// setVictim fills the scratch Victim from the buffer of the line at addr,
// copying its bytes only when it is dirty.
func (h *Hierarchy) setVictim(addr dram.Addr, b *lineBuf) {
	h.victim.Addr, h.victim.Dirty = addr, b.dirty
	if b.dirty {
		h.victim.Data = b.data
	}
}

// Resident reports whether addr's line is anywhere in the hierarchy.
func (h *Hierarchy) Resident(addr dram.Addr) bool {
	_, _, ok := h.locate(lineAddr(addr))
	return ok
}

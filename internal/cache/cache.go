// Package cache provides a generic set-associative cache model with
// pluggable replacement policies. It is used for the CPU cache hierarchy
// (L1/L2/LLC) and for the MEE cache; callers own the address-to-set mapping,
// so the MEE's odd/even set split for versions and PD_Tag lines lives in the
// mee package, not here.
//
// Each set's lines and replacement window are one block, materialized on
// the set's first write and allocated a chunk of blocks at a time; a Policy
// reads and writes one set's window at a time, and the same windows are the
// serialized form (State). A set never written has no block: it reads as
// empty with the policy's Init window. New, Clone and Snapshot therefore
// copy only flat per-set words (occupancy masks, eviction counters and
// block indexes), whatever a cache holds: a snapshot and its clones share
// blocks copy-on-write, and each copies only the sets it writes. Every scan
// of a set visits only the ways its mask marks valid, so a probe of an
// empty set never reaches a block and a probe of a near-empty set costs
// little whatever the associativity.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"

	"meecc/internal/obs"
)

// Tag identifies a cache line. By convention it is the full line address
// (physical address >> log2(lineSize)), which keeps tags unique across sets
// and makes test assertions straightforward.
type Tag uint64

// Line is one cache line's bookkeeping. The data payload lives in the
// backing store (DRAM model); caches here track presence and dirtiness only,
// which is all the timing channel needs.
type Line struct {
	Tag   Tag
	Valid bool
	Dirty bool
}

// Stats accumulates cache event counts.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Fills         uint64
	Evictions     uint64
	WritebacksOut uint64 // dirty evictions + dirty invalidations
	Invalidations uint64
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulation engine serializes all actors, so no locking is needed.
// valid[s] has bit w set exactly when way w of set s holds a line, and set
// s's block holds the ways' tags, their dirty mask, then the policy's
// window, padded to a whole number of cache lines. The masks are derived
// state, so State does not carry them.
type Cache struct {
	name    string
	sets    int
	ways    int
	stride  int    // policy words per set
	full    uint64 // occupancy mask of a set with every way valid
	valid   []uint64
	blocks  Blocks[uint64]
	policy  Policy
	stats   Stats
	evBySet []uint64
}

// maxWays is the occupancy-mask width: one uint64 per set.
const maxWays = 64

// checkGeometry is the one geometry rule New and FromState share: at least
// one set, and 1..maxWays ways so a set's occupancy fits its mask.
func checkGeometry(name string, sets, ways int) error {
	if sets <= 0 || ways <= 0 || ways > maxWays {
		return fmt.Errorf("cache %s: invalid geometry %dx%d (want at least 1 set and 1..%d ways)", name, sets, ways, maxWays)
	}
	return nil
}

// New builds a cache with the given geometry and replacement policy.
// sets must be positive and ways in 1..64; tree-PLRU additionally requires
// ways to be a power of two (enforced by the policy). No set has a block
// yet: each is materialized on the set's first write.
func New(name string, sets, ways int, policy Policy) *Cache {
	if err := checkGeometry(name, sets, ways); err != nil {
		panic(err.Error())
	}
	stride := policy.Words(ways)
	// Blocks are padded to whole 64-byte lines, so that in a chunk, which
	// the allocator aligns to a line, no block straddles one more line than
	// it fills.
	empty := make([]uint64, (ways+1+stride+7)&^7)
	policy.Init(empty[ways+1 : ways+1+stride])
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		stride:  stride,
		full:    fullMask(ways),
		valid:   make([]uint64, sets),
		blocks:  NewBlocks(sets, empty),
		policy:  policy,
		evBySet: make([]uint64, sets),
	}
}

// fullMask returns the occupancy mask with one bit per way.
func fullMask(ways int) uint64 { return ^uint64(0) >> (maxWays - ways) }

// wayIn returns the way of block b holding tag among the ways m marks
// valid, or -1.
func wayIn(b []uint64, m uint64, tag Tag) int {
	for ; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); Tag(b[w]) == tag {
			return w
		}
	}
	return -1
}

// probe returns the index of set's block and the way holding tag in it,
// or -1, without writing; a probe of an empty set stops at its mask.
func (c *Cache) probe(set int, tag Tag) (i uint32, way int) {
	if m := c.valid[set]; m != 0 {
		i = c.blocks.dir[set]
		// The scan reads only the tags, the block's first words.
		return i, wayIn(c.blocks.chunks[i>>offsetBits][i&offsetMask:], m, tag)
	}
	return 0, -1
}

// window returns block b's replacement state.
func (c *Cache) window(b []uint64) []uint64 { return b[c.ways+1 : c.ways+1+c.stride] }

// line returns way w of block b as a Line; w must be valid.
func (c *Cache) line(b []uint64, w int) Line {
	return Line{Tag: Tag(b[w]), Valid: true, Dirty: b[c.ways]&(1<<w) != 0}
}

// Name returns the cache's diagnostic name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Observe registers the cache's counters with an observer as deferred
// samples under "cache.<prefix>.": nothing is added to the lookup/insert hot
// path — the existing Stats fields are simply read at snapshot time. The
// eviction-by-set distribution is summarized as the hottest set and its
// eviction count, the signal the Prime+Probe channel rides on. Safe with a
// nil observer.
func (c *Cache) Observe(o *obs.Observer, prefix string) {
	if o == nil {
		return
	}
	p := "cache." + prefix + "."
	o.Sample(p+"hits", obs.Semantic, func() uint64 { return c.stats.Hits })
	o.Sample(p+"misses", obs.Semantic, func() uint64 { return c.stats.Misses })
	o.Sample(p+"fills", obs.Semantic, func() uint64 { return c.stats.Fills })
	o.Sample(p+"evictions", obs.Semantic, func() uint64 { return c.stats.Evictions })
	o.Sample(p+"writebacks_out", obs.Semantic, func() uint64 { return c.stats.WritebacksOut })
	o.Sample(p+"invalidations", obs.Semantic, func() uint64 { return c.stats.Invalidations })
	o.Sample(p+"hot_set", obs.Semantic, func() uint64 {
		set, _ := c.MaxSetEvictions()
		return uint64(set)
	})
	o.Sample(p+"hot_set_evictions", obs.Semantic, func() uint64 {
		_, n := c.MaxSetEvictions()
		return n
	})
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics counters, including per-set evictions.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	for i := range c.evBySet {
		c.evBySet[i] = 0
	}
}

// EvictionsBySet returns a copy of the per-set conflict-eviction counters —
// the signal hardware-performance-counter detectors of cache attacks watch
// for (a covert channel hammers one set; benign traffic spreads out).
func (c *Cache) EvictionsBySet() []uint64 {
	return c.EvictionsBySetInto(nil)
}

// EvictionsBySetInto copies the per-set eviction counters into dst, growing
// it only if its capacity is insufficient, and returns the filled slice.
// Periodic samplers (e.g. the detect monitor) pass their previous buffer to
// keep the polling loop allocation-free.
func (c *Cache) EvictionsBySetInto(dst []uint64) []uint64 {
	if cap(dst) < len(c.evBySet) {
		dst = make([]uint64, len(c.evBySet))
	}
	dst = dst[:len(c.evBySet)]
	copy(dst, c.evBySet)
	return dst
}

// MaxSetEvictions returns the hottest set's eviction count and its index.
func (c *Cache) MaxSetEvictions() (set int, count uint64) {
	for s, n := range c.evBySet {
		if n > count {
			set, count = s, n
		}
	}
	return set, count
}

// Lookup probes set for tag. On a hit it updates replacement state and
// returns true. On a miss it returns false and does not modify the cache.
func (c *Cache) Lookup(set int, tag Tag) bool {
	_, hit := c.LookupWay(set, tag)
	return hit
}

// LookupWay is Lookup returning the resident way on a hit, so callers that
// keep per-line side data in dense [set][way] arrays (the MEE node buffers,
// the cpucache plaintext buffers) can index it without a map. way is -1 on a
// miss.
func (c *Cache) LookupWay(set int, tag Tag) (way int, hit bool) {
	i, w := c.probe(set, tag)
	if w < 0 {
		c.stats.Misses++
		return -1, false
	}
	if i < c.blocks.owned {
		return c.lookupCopying(set, tag)
	}
	c.policy.Touch(c.window(c.blocks.at(i)), w)
	c.stats.Hits++
	return w, true
}

// Contains probes set for tag without updating replacement state or stats.
func (c *Cache) Contains(set int, tag Tag) bool {
	_, ok := c.WayOf(set, tag)
	return ok
}

// WayOf returns the way holding tag without updating replacement state or
// stats (Contains with the way exposed). way is -1 when absent.
func (c *Cache) WayOf(set int, tag Tag) (way int, ok bool) {
	_, w := c.probe(set, tag)
	return w, w >= 0
}

// MarkDirty sets the dirty bit of a resident line. It reports whether the
// line was present.
func (c *Cache) MarkDirty(set int, tag Tag) bool {
	_, w := c.probe(set, tag)
	if w < 0 {
		return false
	}
	c.blocks.Write(set)[c.ways] |= 1 << w
	return true
}

// Insert fills tag into set, evicting if necessary. It returns the evicted
// line (Valid=false if an empty way was used). The inserted line's dirty bit
// is set from dirty. Inserting a tag that is already resident just touches
// it (and ORs in the dirty bit).
func (c *Cache) Insert(set int, tag Tag, dirty bool) (evicted Line) {
	_, evicted = c.InsertWay(set, tag, dirty)
	return evicted
}

// InsertWay is Insert returning the way the line landed in, so callers with
// dense [set][way] side data can place the line's payload without a map.
func (c *Cache) InsertWay(set int, tag Tag, dirty bool) (way int, evicted Line) {
	i := c.blocks.dir[set]
	if i < c.blocks.owned {
		return c.insertCopying(set, tag, dirty)
	}
	b := c.blocks.at(i)
	m := c.valid[set]
	// Already present: refresh.
	if w := wayIn(b, m, tag); w >= 0 {
		if dirty {
			b[c.ways] |= 1 << w
		}
		c.policy.Touch(c.window(b), w)
		return w, Line{}
	}
	if m != c.full {
		// Empty way available: the lowest one.
		way = bits.TrailingZeros64(^m)
	} else {
		// Evict a victim.
		way = c.policy.Victim(c.window(b), c.ways)
		if way < 0 || way >= c.ways {
			panic(fmt.Sprintf("cache %s: policy %s returned victim way %d of %d", c.name, c.policy.Name(), way, c.ways))
		}
		evicted = c.line(b, way)
		c.stats.Evictions++
		c.evBySet[set]++
		if evicted.Dirty {
			c.stats.WritebacksOut++
		}
	}
	b[way] = uint64(tag)
	if dirty {
		b[c.ways] |= 1 << way
	} else {
		b[c.ways] &^= 1 << way
	}
	c.valid[set] = m | 1<<way
	c.policy.Fill(c.window(b), way)
	c.stats.Fills++
	return way, evicted
}

// Invalidate removes tag from set (clflush semantics). It returns the line
// that was removed; Valid=false means the tag was not resident. Dirty
// removals count as writebacks.
func (c *Cache) Invalidate(set int, tag Tag) Line {
	_, l := c.InvalidateWay(set, tag)
	return l
}

// InvalidateWay is Invalidate returning the way the line was removed from
// (-1 when the tag was not resident).
func (c *Cache) InvalidateWay(set int, tag Tag) (way int, removed Line) {
	i, way := c.probe(set, tag)
	if way < 0 {
		return -1, Line{}
	}
	if i < c.blocks.owned {
		return c.invalidateCopying(set, tag)
	}
	b := c.blocks.at(i)
	removed = c.line(b, way)
	b[c.ways] &^= 1 << way
	c.valid[set] &^= 1 << way
	c.policy.Invalidate(c.window(b), way)
	c.stats.Invalidations++
	if removed.Dirty {
		c.stats.WritebacksOut++
	}
	return way, removed
}

// lookupCopying, insertCopying and invalidateCopying run LookupWay,
// InsertWay and InvalidateWay on a set whose block c does not own yet: each
// copies the block, then runs the operation again. The three check
// ownership inline, the common case, and leave the copy to these, so that
// their common path has no call to keep its arguments in memory for.
func (c *Cache) lookupCopying(set int, tag Tag) (int, bool) {
	c.blocks.Write(set)
	return c.LookupWay(set, tag)
}

func (c *Cache) insertCopying(set int, tag Tag, dirty bool) (int, Line) {
	c.blocks.Write(set)
	return c.InsertWay(set, tag, dirty)
}

func (c *Cache) invalidateCopying(set int, tag Tag) (int, Line) {
	c.blocks.Write(set)
	return c.InvalidateWay(set, tag)
}

// FlushAll invalidates every line, returning the dirty lines that would be
// written back in [set*ways+way] order.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for s, m := range c.valid {
		if m == 0 {
			continue
		}
		b := c.blocks.Write(s)
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			l := c.line(b, w)
			c.policy.Invalidate(c.window(b), w)
			c.stats.Invalidations++
			if l.Dirty {
				dirty = append(dirty, l)
				c.stats.WritebacksOut++
			}
		}
		b[c.ways] = 0
		c.valid[s] = 0
	}
	return dirty
}

// Clone returns an independent copy of the cache — lines, replacement
// state, statistics, and per-set eviction counters — for platform forking.
// rng rebinds randomized policies (random, nru) to the fork's engine stream;
// it may be nil for deterministic policies (the clone then shares the
// original's random source, which forking never does).
//
// The clone shares c's blocks copy-on-write and copies only the flat
// per-set masks, counters and block indexes. Clone only reads c, so clones
// of one frozen cache may be taken concurrently; c itself must not run on
// afterwards (use Snapshot for a cache that keeps running).
func (c *Cache) Clone(rng *rand.Rand) *Cache {
	policy := c.policy
	if rng != nil {
		// Rebind rng-bearing policies so future victims draw from the fork's
		// stream. PolicyByName cannot fail here: c.policy.Name() is a
		// registered name and rng is non-nil.
		p, err := PolicyByName(c.policy.Name(), rng)
		if err != nil {
			panic(fmt.Sprintf("cache %s: cloning policy: %v", c.name, err))
		}
		policy = p
	}
	n := *c
	n.policy = policy
	n.valid = slices.Clone(c.valid)
	n.blocks = c.blocks.Clone()
	n.evBySet = slices.Clone(c.evBySet)
	return &n
}

// Snapshot returns a frozen copy of the cache to Clone from, and moves c to
// a new generation: every block is then shared, so c may keep running and
// copies a block before its first write, leaving the frozen copy intact.
func (c *Cache) Snapshot() *Cache {
	n := c.Clone(nil)
	c.blocks.newGeneration()
	return n
}

// SetContents returns a copy of the lines in a set, for tests and tools.
// An invalid way reads as the zero Line.
func (c *Cache) SetContents(set int) []Line {
	lines := make([]Line, c.ways)
	c.linesInto(lines, set)
	return lines
}

// linesInto writes set's lines into dst, which holds c.ways zero Lines.
func (c *Cache) linesInto(dst []Line, set int) {
	m := c.valid[set]
	if m == 0 {
		return
	}
	b := c.blocks.Read(set)
	for ; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		dst[w] = c.line(b, w)
	}
}

// ValidCount returns the number of valid lines in the whole cache.
func (c *Cache) ValidCount() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

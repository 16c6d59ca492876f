// Package cache provides a generic set-associative cache model with
// pluggable replacement policies. It is used for the CPU cache hierarchy
// (L1/L2/LLC) and for the MEE cache; callers own the address-to-set mapping,
// so the MEE's odd/even set split for versions and PD_Tag lines lives in the
// mee package, not here.
//
// Each cache is a few flat slabs allocated once by New: the line directory
// indexed [set*ways+way], one occupancy mask per set, and one word slab
// holding every set's replacement state, which a Policy reads and writes one
// set's window at a time. The same windows are the serialized form (State),
// so cloning, exporting and rebuilding a cache are slab copies whatever its
// geometry. Every scan of a set visits only the ways its mask marks valid,
// so a probe of a near-empty set costs little whatever the associativity.
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
// lines is indexed [set*ways+way], valid[s] has bit w set exactly when
// lines[s*ways+w] is valid, and words holds set s's replacement window at
// [s*stride : (s+1)*stride]; all are allocated once by New. The masks are
// derived from lines, so State does not carry them.
type Cache struct {
	name    string
	sets    int
	ways    int
	stride  int    // policy words per set
	full    uint64 // occupancy mask of a set with every way valid
	lines   []Line
	valid   []uint64
	words   []uint64
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
// ways to be a power of two (enforced by the policy).
func New(name string, sets, ways int, policy Policy) *Cache {
	if err := checkGeometry(name, sets, ways); err != nil {
		panic(err.Error())
	}
	stride := policy.Words(ways)
	c := &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		stride:  stride,
		full:    fullMask(ways),
		lines:   make([]Line, sets*ways),
		valid:   make([]uint64, sets),
		words:   make([]uint64, sets*stride),
		policy:  policy,
		evBySet: make([]uint64, sets),
	}
	for s := 0; s < sets; s++ {
		policy.Init(c.window(s))
	}
	return c
}

// fullMask returns the occupancy mask with one bit per way.
func fullMask(ways int) uint64 { return ^uint64(0) >> (maxWays - ways) }

// find returns the way holding tag in set, or -1, visiting only the ways
// the set's occupancy mask marks valid.
func (c *Cache) find(set int, tag Tag) int {
	base := set * c.ways
	for m := c.valid[set]; m != 0; m &= m - 1 {
		if w := bits.TrailingZeros64(m); c.lines[base+w].Tag == tag {
			return w
		}
	}
	return -1
}

// window returns one set's replacement state, aliasing the word slab.
func (c *Cache) window(set int) []uint64 {
	return c.words[set*c.stride : (set+1)*c.stride : (set+1)*c.stride]
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
	if w := c.find(set, tag); w >= 0 {
		c.policy.Touch(c.window(set), w)
		c.stats.Hits++
		return w, true
	}
	c.stats.Misses++
	return -1, false
}

// Contains probes set for tag without updating replacement state or stats.
func (c *Cache) Contains(set int, tag Tag) bool {
	_, ok := c.WayOf(set, tag)
	return ok
}

// WayOf returns the way holding tag without updating replacement state or
// stats (Contains with the way exposed). way is -1 when absent.
func (c *Cache) WayOf(set int, tag Tag) (way int, ok bool) {
	w := c.find(set, tag)
	return w, w >= 0
}

// MarkDirty sets the dirty bit of a resident line. It reports whether the
// line was present.
func (c *Cache) MarkDirty(set int, tag Tag) bool {
	w := c.find(set, tag)
	if w < 0 {
		return false
	}
	c.lines[set*c.ways+w].Dirty = true
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
	base := set * c.ways
	// Already present: refresh.
	if w := c.find(set, tag); w >= 0 {
		l := &c.lines[base+w]
		l.Dirty = l.Dirty || dirty
		c.policy.Touch(c.window(set), w)
		return w, Line{}
	}
	if m := c.valid[set]; m != c.full {
		// Empty way available: the lowest one.
		way = bits.TrailingZeros64(^m)
	} else {
		// Evict a victim.
		way = c.policy.Victim(c.window(set), c.ways)
		if way < 0 || way >= c.ways {
			panic(fmt.Sprintf("cache %s: policy %s returned victim way %d of %d", c.name, c.policy.Name(), way, c.ways))
		}
		evicted = c.lines[base+way]
		c.stats.Evictions++
		c.evBySet[set]++
		if evicted.Dirty {
			c.stats.WritebacksOut++
		}
	}
	c.lines[base+way] = Line{Tag: tag, Valid: true, Dirty: dirty}
	c.valid[set] |= 1 << way
	c.policy.Fill(c.window(set), way)
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
	way = c.find(set, tag)
	if way < 0 {
		return -1, Line{}
	}
	l := &c.lines[set*c.ways+way]
	removed, *l = *l, Line{}
	c.valid[set] &^= 1 << way
	c.policy.Invalidate(c.window(set), way)
	c.stats.Invalidations++
	if removed.Dirty {
		c.stats.WritebacksOut++
	}
	return way, removed
}

// FlushAll invalidates every line, returning the dirty lines that would be
// written back in [set*ways+way] order.
func (c *Cache) FlushAll() []Line {
	var dirty []Line
	for s, m := range c.valid {
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			l := c.lines[s*c.ways+w]
			c.lines[s*c.ways+w] = Line{}
			c.policy.Invalidate(c.window(s), w)
			c.stats.Invalidations++
			if l.Dirty {
				dirty = append(dirty, l)
				c.stats.WritebacksOut++
			}
		}
		c.valid[s] = 0
	}
	return dirty
}

// Clone returns an independent deep copy of the cache — lines, replacement
// state, statistics, and per-set eviction counters — for platform forking.
// rng rebinds randomized policies (random, nru) to the fork's engine stream;
// it may be nil for deterministic policies (the clone then shares the
// original's random source, which forking never does).
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
	n.lines = slices.Clone(c.lines)
	n.valid = slices.Clone(c.valid)
	n.words = slices.Clone(c.words)
	n.evBySet = slices.Clone(c.evBySet)
	return &n
}

// SetContents returns a copy of the lines in a set, for tests and tools.
func (c *Cache) SetContents(set int) []Line {
	return slices.Clone(c.lines[set*c.ways : (set+1)*c.ways])
}

// ValidCount returns the number of valid lines in the whole cache.
func (c *Cache) ValidCount() int {
	n := 0
	for _, m := range c.valid {
		n += bits.OnesCount64(m)
	}
	return n
}

package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"

	"meecc/internal/wire"
)

// AppendImage appends the cache's image to w: its name, geometry and policy
// name, the sets that differ from an untouched one, its statistics, and the
// nonzero per-set eviction counters (w.SparseWords). A set is listed when
// it holds a valid line or its replacement window differs from the policy's
// Init window; every set not listed is untouched. The window length comes
// before the listed sets, 0 when none is; each listed set is its index,
// valid mask and dirty mask, then the tags of its valid ways in way order,
// then its window (see Policy).
func (c *Cache) AppendImage(w *wire.Writer) {
	untouched := c.window(c.blocks.at(0))
	n := 0
	for s := range c.valid {
		if c.listed(s, untouched) {
			n++
		}
	}
	w.String(c.name)
	w.U32(uint32(c.sets))
	w.U32(uint32(c.ways))
	w.String(c.policy.Name())
	stride := c.stride
	if n == 0 {
		stride = 0
	}
	w.U32(uint32(stride))
	w.U64(uint64(n))
	for s, m := range c.valid {
		if !c.listed(s, untouched) {
			continue
		}
		b := c.blocks.Read(s)
		w.U32(uint32(s))
		w.U64(m)
		w.U64(b[c.ways] & m)
		for ; m != 0; m &= m - 1 {
			w.U64(b[bits.TrailingZeros64(m)])
		}
		for _, x := range c.window(b) {
			w.U64(x)
		}
	}
	w.U64(c.stats.Hits)
	w.U64(c.stats.Misses)
	w.U64(c.stats.Fills)
	w.U64(c.stats.Evictions)
	w.U64(c.stats.WritebacksOut)
	w.U64(c.stats.Invalidations)
	w.SparseWords(c.evBySet)
}

// listed reports whether set s differs from an untouched set, whose window
// is untouched: it holds a valid line or a window of its own.
func (c *Cache) listed(s int, untouched []uint64) bool {
	if c.valid[s] != 0 {
		return true
	}
	return c.blocks.dir[s] != 0 && !slices.Equal(c.window(c.blocks.Read(s)), untouched)
}

// setWire is a listed set's fixed fields on the wire: set index, valid and
// dirty masks.
const setWire = 4 + 8 + 8

// ReadImage reads the image AppendImage appends of a sets×ways cache and
// rebuilds it as a frozen cache, giving a block only to the listed sets.
// A randomized policy (random, nru) gets a private throwaway source — safe
// for a frozen cache, which never runs: Clone(rng) at fork time rebinds it
// to the fork's engine stream before any victim is drawn. Every rule an image
// can break is checked: the geometry New refuses (checkGeometry) or any
// other than sets×ways, a policy that cannot model the ways, set indexes
// strictly ascending and in range, masks within the ways and the dirty mask
// within the valid one, one distinct tag per valid way, windows of the
// policy's length that pass its Check, no listed set equal to an untouched
// one, and the sparse form of the eviction counters. So a corrupted image
// returns an error rather than panicking downstream, and an image that
// reads back appends unchanged.
func ReadImage(r *wire.Reader, sets, ways int) (*Cache, error) {
	name := r.String()
	imgSets, imgWays := int(r.U32()), int(r.U32())
	policyName := r.String()
	stride := int(r.U32())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := checkGeometry(name, imgSets, imgWays); err != nil {
		return nil, err
	}
	if imgSets != sets || imgWays != ways {
		return nil, fmt.Errorf("cache %s: image of %dx%d, want %dx%d", name, imgSets, imgWays, sets, ways)
	}
	if policyName == "tree-plru" && ways&(ways-1) != 0 {
		return nil, fmt.Errorf("cache %s: tree-plru requires power-of-two ways, got %d", name, ways)
	}
	policy, err := PolicyByName(policyName, nil)
	if err != nil {
		policy, err = PolicyByName(policyName, rand.New(rand.NewPCG(0, 0)))
	}
	if err != nil {
		return nil, fmt.Errorf("cache %s: %w", name, err)
	}
	c := New(name, sets, ways, policy)
	n := r.Count(setWire + 8*stride)
	if n > 0 && stride != c.stride || n == 0 && stride != 0 {
		return nil, fmt.Errorf("cache %s: %d listed sets with %s windows of %d words", name, n, policyName, stride)
	}
	untouched := c.window(c.blocks.at(0))
	last := -1
	for i := 0; i < n && r.Err() == nil; i++ {
		s, valid, dirty := int(r.U32()), r.U64(), r.U64()
		if r.Err() != nil {
			break
		}
		if s <= last || s >= sets {
			return nil, fmt.Errorf("cache %s: listed set %d out of order or range", name, s)
		}
		last = s
		if valid&^c.full != 0 || dirty&^valid != 0 {
			return nil, fmt.Errorf("cache %s set %d: valid mask %#x or dirty mask %#x outside %d ways", name, s, valid, dirty, ways)
		}
		b := c.blocks.Write(s)
		for m := valid; m != 0; m &= m - 1 {
			t := r.U64()
			if wayIn(b, valid&^m, Tag(t)) >= 0 {
				return nil, fmt.Errorf("cache %s set %d: tag %#x held by two ways", name, s, t)
			}
			b[bits.TrailingZeros64(m)] = t
		}
		b[ways] = dirty
		window := c.window(b)
		for j := range window {
			window[j] = r.U64()
		}
		if r.Err() != nil {
			break
		}
		if err := policy.Check(window); err != nil {
			return nil, fmt.Errorf("cache %s set %d: %w", name, s, err)
		}
		if valid == 0 && slices.Equal(window, untouched) {
			return nil, fmt.Errorf("cache %s set %d: listed but untouched", name, s)
		}
		c.valid[s] = valid
	}
	c.stats.Hits = r.U64()
	c.stats.Misses = r.U64()
	c.stats.Fills = r.U64()
	c.stats.Evictions = r.U64()
	c.stats.WritebacksOut = r.U64()
	c.stats.Invalidations = r.U64()
	r.SparseWords(sets, func(s int, v uint64) { c.evBySet[s] = v })
	if err := r.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// PolicyName returns the name of the cache's replacement policy, the name
// PolicyByName takes.
func (c *Cache) PolicyName() string { return c.policy.Name() }

package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// State is the serializable image of a Cache: geometry, policy name, the
// sets that differ from an untouched one, statistics, and the nonzero
// per-set eviction counters. A set is listed when it holds a valid line or
// its replacement window differs from the policy's Init window; every set
// not listed is untouched. The image contains no pointers into the live
// cache and no random sources; FromState rebuilds an equivalent frozen
// cache from it, giving a block only to the listed sets.
type State struct {
	Name       string
	Sets, Ways int
	PolicyName string
	Listed     []SetState // ascending Set
	Stats      Stats
	EvBySet    []Word // nonzero per-set eviction counters
}

// SetState is one listed set: its index, the occupancy mask, the dirty
// mask (a subset of Valid), the tags of the valid ways in way order, and
// the policy's replacement window (see Policy).
type SetState struct {
	Set          int
	Valid, Dirty uint64
	Tags         []Tag
	Window       []uint64
}

// Word is one nonzero word of a sparse word-vector image, at its index in
// the vector. Cache eviction counters travel as Words, and so do the MEE
// init bitmap and the platform's general-frame bitmap.
type Word struct {
	Index int
	Value uint64
}

// SparseWords returns the nonzero words of v in ascending index order.
func SparseWords(v []uint64) []Word {
	var ws []Word
	for i, x := range v {
		if x != 0 {
			ws = append(ws, Word{Index: i, Value: x})
		}
	}
	return ws
}

// CheckWords reports whether ws is a sparse image of an n-word vector as
// SparseWords writes one: indexes strictly ascending and below n, and no
// zero value, so that re-exporting the vector gives ws back.
func CheckWords(ws []Word, n int) error {
	last := -1
	for _, w := range ws {
		if w.Index <= last || w.Index >= n {
			return fmt.Errorf("sparse word index %d out of order or range (%d words)", w.Index, n)
		}
		if w.Value == 0 {
			return fmt.Errorf("sparse word %d is zero", w.Index)
		}
		last = w.Index
	}
	return nil
}

// FillWords checks ws against len(dst) and writes it into dst, which reads
// as zero.
func FillWords(dst []uint64, ws []Word) error {
	if err := CheckWords(ws, len(dst)); err != nil {
		return err
	}
	for _, w := range ws {
		dst[w.Index] = w.Value
	}
	return nil
}

// ExportState captures the cache as a State. The image is a deep copy; the
// cache may keep running afterwards. The listed sets' tags and windows are
// carved out of one slab each.
func (c *Cache) ExportState() *State {
	untouched := c.window(c.blocks.at(0))
	n, tags := 0, 0
	for s, m := range c.valid {
		if c.listed(s, untouched) {
			n++
			tags += bits.OnesCount64(m)
		}
	}
	st := &State{
		Name:       c.name,
		Sets:       c.sets,
		Ways:       c.ways,
		PolicyName: c.policy.Name(),
		Listed:     make([]SetState, 0, n),
		Stats:      c.stats,
		EvBySet:    SparseWords(c.evBySet),
	}
	tagSlab := make([]Tag, tags)
	words := make([]uint64, n*c.stride)
	for s, m := range c.valid {
		if !c.listed(s, untouched) {
			continue
		}
		b := c.blocks.Read(s)
		k := bits.OnesCount64(m)
		ss := SetState{Set: s, Valid: m, Dirty: b[c.ways] & m, Tags: tagSlab[:k:k], Window: words[:c.stride:c.stride]}
		tagSlab, words = tagSlab[k:], words[c.stride:]
		for i := 0; m != 0; m &= m - 1 {
			ss.Tags[i] = Tag(b[bits.TrailingZeros64(m)])
			i++
		}
		copy(ss.Window, c.window(b))
		st.Listed = append(st.Listed, ss)
	}
	return st
}

// listed reports whether set s differs from an untouched set, whose window
// is untouched: it holds a valid line or a window of its own.
func (c *Cache) listed(s int, untouched []uint64) bool {
	if c.valid[s] != 0 {
		return true
	}
	return c.blocks.dir[s] != 0 && !slices.Equal(c.window(c.blocks.Read(s)), untouched)
}

// FromState rebuilds a cache from a State image. rng rebinds randomized
// policies (random, nru); it may be nil, in which case those policies get a
// private throwaway source — safe for frozen copies that never run, because
// Clone(rng) at fork time rebinds them to the fork's engine stream before
// any victim is drawn. Geometry and every listed set are validated — set
// indexes strictly ascending and in range, masks within the ways and the
// dirty mask within the valid one, one distinct tag per valid way, windows
// of the policy's length that pass its Check, and no listed set equal to an
// untouched one — as are the eviction counters, so a corrupted image
// returns an error rather than panicking downstream, and an image that
// decodes re-exports unchanged.
func FromState(st *State, rng *rand.Rand) (*Cache, error) {
	if err := checkGeometry(st.Name, st.Sets, st.Ways); err != nil {
		return nil, err
	}
	if st.PolicyName == "tree-plru" && st.Ways&(st.Ways-1) != 0 {
		return nil, fmt.Errorf("cache %s: tree-plru requires power-of-two ways, got %d", st.Name, st.Ways)
	}
	policy, err := PolicyByName(st.PolicyName, rng)
	if err != nil {
		if rng != nil {
			return nil, fmt.Errorf("cache %s: %w", st.Name, err)
		}
		policy, err = PolicyByName(st.PolicyName, rand.New(rand.NewPCG(0, 0)))
		if err != nil {
			return nil, fmt.Errorf("cache %s: %w", st.Name, err)
		}
	}
	c := New(st.Name, st.Sets, st.Ways, policy)
	c.stats = st.Stats
	if err := FillWords(c.evBySet, st.EvBySet); err != nil {
		return nil, fmt.Errorf("cache %s eviction counters: %w", st.Name, err)
	}
	untouched := c.window(c.blocks.at(0))
	last := -1
	for _, ss := range st.Listed {
		s := ss.Set
		if s <= last || s >= c.sets {
			return nil, fmt.Errorf("cache %s: listed set %d out of order or range", st.Name, s)
		}
		last = s
		if ss.Valid&^c.full != 0 || ss.Dirty&^ss.Valid != 0 {
			return nil, fmt.Errorf("cache %s set %d: valid mask %#x or dirty mask %#x outside %d ways", st.Name, s, ss.Valid, ss.Dirty, c.ways)
		}
		if len(ss.Tags) != bits.OnesCount64(ss.Valid) {
			return nil, fmt.Errorf("cache %s set %d: %d tags for valid mask %#x", st.Name, s, len(ss.Tags), ss.Valid)
		}
		for i, t := range ss.Tags {
			if slices.Contains(ss.Tags[:i], t) {
				return nil, fmt.Errorf("cache %s set %d: tag %#x held by two ways", st.Name, s, t)
			}
		}
		if len(ss.Window) != c.stride {
			return nil, fmt.Errorf("cache %s set %d: %s state: %d words, want %d", st.Name, s, st.PolicyName, len(ss.Window), c.stride)
		}
		if err := policy.Check(ss.Window); err != nil {
			return nil, fmt.Errorf("cache %s set %d: %w", st.Name, s, err)
		}
		if ss.Valid == 0 && slices.Equal(ss.Window, untouched) {
			return nil, fmt.Errorf("cache %s set %d: listed but untouched", st.Name, s)
		}
		b := c.blocks.Write(s)
		for i, m := 0, ss.Valid; m != 0; m &= m - 1 {
			b[bits.TrailingZeros64(m)] = uint64(ss.Tags[i])
			i++
		}
		b[c.ways] = ss.Dirty
		copy(c.window(b), ss.Window)
		c.valid[s] = ss.Valid
	}
	return c, nil
}

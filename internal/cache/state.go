package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
)

// State is the serializable image of a Cache: geometry, policy name, line
// directory, per-set replacement words, statistics, and per-set eviction
// counters. It contains no pointers into the live cache and no random
// sources; FromState rebuilds an equivalent frozen cache from it, deriving
// the occupancy masks from the lines. The image is dense whatever sets the
// cache has materialized.
type State struct {
	Name       string
	Sets, Ways int
	PolicyName string
	Lines      []Line     // dense [set*ways+way]
	SetWords   [][]uint64 // per-set replacement windows (see Policy)
	Stats      Stats
	EvBySet    []uint64
}

// ExportState captures the cache as a State. The image is a deep copy; the
// cache may keep running afterwards. A set never written exports zero lines
// and the policy's Init window.
func (c *Cache) ExportState() *State {
	st := &State{
		Name:       c.name,
		Sets:       c.sets,
		Ways:       c.ways,
		PolicyName: c.policy.Name(),
		Lines:      make([]Line, c.sets*c.ways),
		SetWords:   make([][]uint64, c.sets),
		Stats:      c.stats,
		EvBySet:    slices.Clone(c.evBySet),
	}
	words := make([]uint64, c.sets*c.stride)
	for s := range st.SetWords {
		c.linesInto(st.Lines[s*c.ways:(s+1)*c.ways], s)
		if c.stride > 0 { // a policy without state leaves its windows nil
			st.SetWords[s] = words[s*c.stride : (s+1)*c.stride : (s+1)*c.stride]
			copy(st.SetWords[s], c.window(c.blocks.Read(s)))
		}
	}
	return st
}

// FromState rebuilds a cache from a State image. rng rebinds randomized
// policies (random, nru); it may be nil, in which case those policies get a
// private throwaway source — safe for frozen copies that never run, because
// Clone(rng) at fork time rebinds them to the fork's engine stream before
// any victim is drawn. All geometry and vector lengths are validated, every
// set's words pass the policy's Check, and an invalid line must be the zero
// Line, so a corrupted image returns an error rather than panicking
// downstream. Only the sets whose lines or window differ from an untouched
// set's get a block.
func FromState(st *State, rng *rand.Rand) (*Cache, error) {
	if err := checkGeometry(st.Name, st.Sets, st.Ways); err != nil {
		return nil, err
	}
	if len(st.Lines) != st.Sets*st.Ways {
		return nil, fmt.Errorf("cache %s: %d lines, want %d", st.Name, len(st.Lines), st.Sets*st.Ways)
	}
	if len(st.SetWords) != st.Sets {
		return nil, fmt.Errorf("cache %s: %d set-word vectors, want %d", st.Name, len(st.SetWords), st.Sets)
	}
	if len(st.EvBySet) != st.Sets {
		return nil, fmt.Errorf("cache %s: %d eviction counters, want %d", st.Name, len(st.EvBySet), st.Sets)
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
	copy(c.evBySet, st.EvBySet)
	untouched := c.window(c.blocks.Read(0)) // no set has a block yet
	for s, ws := range st.SetWords {
		if len(ws) != c.stride {
			return nil, fmt.Errorf("cache %s set %d: %s state: %d words, want %d", st.Name, s, st.PolicyName, len(ws), c.stride)
		}
		if err := policy.Check(ws); err != nil {
			return nil, fmt.Errorf("cache %s set %d: %w", st.Name, s, err)
		}
		lines := st.Lines[s*c.ways : (s+1)*c.ways]
		var m uint64
		for w, l := range lines {
			if l.Valid {
				m |= 1 << w
			} else if l != (Line{}) {
				return nil, fmt.Errorf("cache %s set %d way %d: invalid line carries tag %d or a dirty bit", st.Name, s, w, l.Tag)
			}
		}
		if m == 0 && slices.Equal(ws, untouched) {
			continue
		}
		b := c.blocks.Write(s)
		for w, l := range lines {
			b[w] = uint64(l.Tag)
			if l.Dirty {
				b[c.ways] |= 1 << w
			}
		}
		copy(c.window(b), ws)
		c.valid[s] = m
	}
	return c, nil
}

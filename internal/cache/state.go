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
// the occupancy masks from the lines.
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
// cache may keep running afterwards.
func (c *Cache) ExportState() *State {
	st := &State{
		Name:       c.name,
		Sets:       c.sets,
		Ways:       c.ways,
		PolicyName: c.policy.Name(),
		Lines:      slices.Clone(c.lines),
		SetWords:   make([][]uint64, c.sets),
		Stats:      c.stats,
		EvBySet:    slices.Clone(c.evBySet),
	}
	if c.stride > 0 {
		words := slices.Clone(c.words)
		for s := range st.SetWords {
			st.SetWords[s] = words[s*c.stride : (s+1)*c.stride : (s+1)*c.stride]
		}
	}
	return st
}

// FromState rebuilds a cache from a State image. rng rebinds randomized
// policies (random, nru); it may be nil, in which case those policies get a
// private throwaway source — safe for frozen copies that never run, because
// Clone(rng) at fork time rebinds them to the fork's engine stream before
// any victim is drawn. All geometry and vector lengths are validated, and
// every set's words pass the policy's Check, so a corrupted image returns an
// error rather than panicking downstream.
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
	stride := policy.Words(st.Ways)
	c := &Cache{
		name:    st.Name,
		sets:    st.Sets,
		ways:    st.Ways,
		stride:  stride,
		full:    fullMask(st.Ways),
		lines:   slices.Clone(st.Lines),
		valid:   make([]uint64, st.Sets),
		words:   make([]uint64, st.Sets*stride),
		policy:  policy,
		stats:   st.Stats,
		evBySet: slices.Clone(st.EvBySet),
	}
	for i, l := range c.lines {
		if l.Valid {
			c.valid[i/c.ways] |= 1 << (i % c.ways)
		}
	}
	for s, ws := range st.SetWords {
		if len(ws) != stride {
			return nil, fmt.Errorf("cache %s set %d: %s state: %d words, want %d", st.Name, s, st.PolicyName, len(ws), stride)
		}
		w := c.window(s)
		copy(w, ws)
		if err := policy.Check(w); err != nil {
			return nil, fmt.Errorf("cache %s set %d: %w", st.Name, s, err)
		}
	}
	return c, nil
}

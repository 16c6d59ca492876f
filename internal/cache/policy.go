package cache

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
)

// Policy is a replacement policy: the operations on one set's replacement
// state. A Cache keeps each set's state in the set's block, Words(ways)
// words, and hands each operation that window w. The window is the set's
// serialized form too (a listed set's window in AppendImage's image), so
// each policy documents its layout. Implementations must be deterministic
// given the engine's seeded random source; random sources are never part
// of the window — Clone rebinds them at fork time.
type Policy interface {
	Name() string
	// Words returns the state words one set of the given associativity
	// uses. It panics on an associativity the policy cannot model.
	Words(ways int) int
	// Init writes a fresh set's state into w.
	Init(w []uint64)
	// Touch records a reference to way (hit).
	Touch(w []uint64, way int)
	// Fill records that way was (re)filled with a new line. Policies that
	// distinguish insertion from reference (FIFO, SRRIP) use this; others
	// treat it as Touch.
	Fill(w []uint64, way int)
	// Victim returns the way to evict. All ways are valid when called.
	Victim(w []uint64, ways int) int
	// Invalidate clears state for way after the line is removed.
	Invalidate(w []uint64, way int)
	// Check validates a window loaded from a serialized image, whose length
	// the caller has already matched against Words.
	Check(w []uint64) error
}

// checkBits accepts a window of 0/1 words: the bit-vector policies'
// layout.
func checkBits(policy string, w []uint64) error {
	for _, v := range w {
		if v > 1 {
			return fmt.Errorf("cache: %s state: bit word %d out of range", policy, v)
		}
	}
	return nil
}

// touchMRU sets way's reference bit; when every bit would be set, the
// others are cleared (bit-PLRU and NRU share this aging rule).
func touchMRU(w []uint64, way int) {
	w[way] = 1
	for _, b := range w {
		if b == 0 {
			return
		}
	}
	clear(w)
	w[way] = 1
}

// ---------------------------------------------------------------------------
// True LRU. Window: [tick, stamp[0..ways)].

type lruPolicy struct{}

// NewLRU returns a true least-recently-used policy.
func NewLRU() Policy { return lruPolicy{} }

func (lruPolicy) Name() string                   { return "lru" }
func (lruPolicy) Words(ways int) int             { return 1 + ways }
func (lruPolicy) Init(w []uint64)                { clear(w) }
func (lruPolicy) Touch(w []uint64, way int)      { w[0]++; w[1+way] = w[0] }
func (p lruPolicy) Fill(w []uint64, way int)     { p.Touch(w, way) }
func (lruPolicy) Victim(w []uint64, _ int) int   { return oldestStamp(w[1:]) }
func (lruPolicy) Invalidate(w []uint64, way int) { w[1+way] = 0 }
func (lruPolicy) Check([]uint64) error           { return nil }

// oldestStamp returns the way with the smallest stamp (lowest way on ties).
func oldestStamp(stamp []uint64) int {
	best, bestStamp := 0, stamp[0]
	for w := 1; w < len(stamp); w++ {
		if stamp[w] < bestStamp {
			best, bestStamp = w, stamp[w]
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// FIFO. Window: [tick, stamp[0..ways)], stamped on fill only.

type fifoPolicy struct{}

// NewFIFO returns a first-in-first-out policy (insertion order, references
// do not refresh).
func NewFIFO() Policy { return fifoPolicy{} }

func (fifoPolicy) Name() string                   { return "fifo" }
func (fifoPolicy) Words(ways int) int             { return 1 + ways }
func (fifoPolicy) Init(w []uint64)                { clear(w) }
func (fifoPolicy) Touch([]uint64, int)            {}
func (fifoPolicy) Fill(w []uint64, way int)       { w[0]++; w[1+way] = w[0] }
func (fifoPolicy) Victim(w []uint64, _ int) int   { return oldestStamp(w[1:]) }
func (fifoPolicy) Invalidate(w []uint64, way int) { w[1+way] = 0 }
func (fifoPolicy) Check([]uint64) error           { return nil }

// ---------------------------------------------------------------------------
// Tree-PLRU ("approximate LRU", the default assumption for the MEE cache —
// Section 5.3 of the paper). Requires power-of-two associativity.

type treePLRUPolicy struct{}

// NewTreePLRU returns a binary-tree pseudo-LRU policy, the classic
// "approximate LRU" found in real hardware caches. The paper's two-phase
// (forward+backward) eviction in Algorithm 2 exists precisely because a
// single in-order pass over an eviction set does not reliably displace all
// resident lines under this policy.
//
// Window: the ways-1 internal nodes of a complete binary tree over the ways,
// one 0/1 word each. 0 means "left subtree is older" (the victim path goes
// left); Touch flips the nodes along the accessed way's path to point away
// from it.
func NewTreePLRU() Policy { return treePLRUPolicy{} }

func (treePLRUPolicy) Name() string { return "tree-plru" }
func (treePLRUPolicy) Words(ways int) int {
	if ways&(ways-1) != 0 {
		panic(fmt.Sprintf("tree-plru requires power-of-two ways, got %d", ways))
	}
	return ways - 1
}
func (treePLRUPolicy) Init(w []uint64) { clear(w) }

func (treePLRUPolicy) Touch(w []uint64, way int) {
	node := 0
	// Walk from the root; at each level decide left/right from the way's
	// bits (MSB first) and point the node away from the accessed half.
	for span := (len(w) + 1) / 2; span >= 1; span /= 2 {
		if way&span != 0 {
			w[node] = 0 // point at the other half next time
			node = 2*node + 2
		} else {
			w[node] = 1
			node = 2*node + 1
		}
	}
}

func (p treePLRUPolicy) Fill(w []uint64, way int) { p.Touch(w, way) }

func (treePLRUPolicy) Victim(w []uint64, ways int) int {
	node, way := 0, 0
	for span := ways / 2; span >= 1; span /= 2 {
		if w[node] != 0 {
			way |= span
			node = 2*node + 2
		} else {
			node = 2*node + 1
		}
	}
	return way
}

func (treePLRUPolicy) Invalidate([]uint64, int) {}
func (treePLRUPolicy) Check(w []uint64) error   { return checkBits("tree-plru", w) }

// ---------------------------------------------------------------------------
// Bit-PLRU (MRU bits). Window: one 0/1 MRU word per way.

type bitPLRUPolicy struct{}

// NewBitPLRU returns an MRU-bit pseudo-LRU policy: each reference sets the
// way's MRU bit; when all bits would be set, the others are cleared. The
// victim is the lowest way with a clear bit.
func NewBitPLRU() Policy { return bitPLRUPolicy{} }

func (bitPLRUPolicy) Name() string                   { return "bit-plru" }
func (bitPLRUPolicy) Words(ways int) int             { return ways }
func (bitPLRUPolicy) Init(w []uint64)                { clear(w) }
func (bitPLRUPolicy) Touch(w []uint64, way int)      { touchMRU(w, way) }
func (bitPLRUPolicy) Fill(w []uint64, way int)       { touchMRU(w, way) }
func (bitPLRUPolicy) Invalidate(w []uint64, way int) { w[way] = 0 }
func (bitPLRUPolicy) Check(w []uint64) error         { return checkBits("bit-plru", w) }
func (bitPLRUPolicy) Victim(w []uint64, _ int) int {
	for way, b := range w {
		if b == 0 {
			return way
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// Random. Window: empty.

type randomPolicy struct{ rng *rand.Rand }

// NewRandom returns a random-replacement policy drawing from rng (pass the
// engine's seeded source for reproducibility). Random replacement is one of
// the mitigation candidates evaluated in the extension experiments.
func NewRandom(rng *rand.Rand) Policy { return &randomPolicy{rng: rng} }

func (*randomPolicy) Name() string                      { return "random" }
func (*randomPolicy) Words(int) int                     { return 0 }
func (*randomPolicy) Init([]uint64)                     {}
func (*randomPolicy) Touch([]uint64, int)               {}
func (*randomPolicy) Fill([]uint64, int)                {}
func (p *randomPolicy) Victim(_ []uint64, ways int) int { return p.rng.IntN(ways) }
func (*randomPolicy) Invalidate([]uint64, int)          {}
func (*randomPolicy) Check([]uint64) error              { return nil }

// policyNames lists the names PolicyByName recognizes.
var policyNames = []string{"lru", "fifo", "tree-plru", "bit-plru", "random", "nru", "srrip"}

// CheckPolicyName reports whether PolicyByName recognizes name. It builds no
// policy, so unlike PolicyByName it needs no random source: input surfaces
// check a name before any machine that could supply one boots.
func CheckPolicyName(name string) error {
	if slices.Contains(policyNames, name) {
		return nil
	}
	return fmt.Errorf("cache: unknown replacement policy %q (have: %s)", name, strings.Join(policyNames, ", "))
}

// PolicyByName constructs a policy from its name; random and nru need rng
// (may be nil for the others). Recognized: lru, fifo, tree-plru, bit-plru,
// random, nru, srrip.
func PolicyByName(name string, rng *rand.Rand) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "fifo":
		return NewFIFO(), nil
	case "tree-plru":
		return NewTreePLRU(), nil
	case "bit-plru":
		return NewBitPLRU(), nil
	case "random":
		if rng == nil {
			return nil, fmt.Errorf("cache: random policy requires a random source")
		}
		return NewRandom(rng), nil
	default:
		return extendedPolicyByName(name, rng)
	}
}

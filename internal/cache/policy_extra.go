package cache

import (
	"fmt"
	"math/rand/v2"
)

// ---------------------------------------------------------------------------
// NRU (not-recently-used): one reference bit per way; victim is chosen among
// clear-bit ways (pseudo-randomly to avoid positional bias); when every bit
// is set, all others are cleared. Many embedded and GPU caches use NRU.
// Window: one 0/1 reference word per way.

type nruPolicy struct{ rng *rand.Rand }

// NewNRU returns a not-recently-used policy with pseudo-random victim
// selection among the non-referenced ways, drawing from rng.
func NewNRU(rng *rand.Rand) Policy { return &nruPolicy{rng: rng} }

func (*nruPolicy) Name() string                   { return "nru" }
func (*nruPolicy) Words(ways int) int             { return ways }
func (*nruPolicy) Init(w []uint64)                { clear(w) }
func (*nruPolicy) Touch(w []uint64, way int)      { touchMRU(w, way) }
func (*nruPolicy) Fill(w []uint64, way int)       { touchMRU(w, way) }
func (*nruPolicy) Invalidate(w []uint64, way int) { w[way] = 0 }
func (*nruPolicy) Check(w []uint64) error         { return checkBits("nru", w) }

func (p *nruPolicy) Victim(w []uint64, ways int) int {
	clearBits := 0
	for _, b := range w {
		if b == 0 {
			clearBits++
		}
	}
	if clearBits == 0 {
		return p.rng.IntN(ways)
	}
	// The k-th clear way in ascending order, k drawn uniformly.
	k := p.rng.IntN(clearBits)
	for way, b := range w {
		if b == 0 {
			if k == 0 {
				return way
			}
			k--
		}
	}
	panic("unreachable")
}

// ---------------------------------------------------------------------------
// SRRIP (static re-reference interval prediction, Jaleel et al. ISCA 2010):
// 2-bit re-reference prediction values; hits promote to 0, fills insert at
// maxRRPV-1, victims are ways at maxRRPV (aging everyone when none is).
// Window: one RRPV word per way.

const srripMax = 3 // 2-bit RRPV

type srripPolicy struct{}

// NewSRRIP returns a static-RRIP policy, the scan-resistant replacement
// found in recent Intel LLCs.
func NewSRRIP() Policy { return srripPolicy{} }

func (srripPolicy) Name() string                   { return "srrip" }
func (srripPolicy) Words(ways int) int             { return ways }
func (srripPolicy) Touch(w []uint64, way int)      { w[way] = 0 }
func (srripPolicy) Fill(w []uint64, way int)       { w[way] = srripMax - 1 }
func (srripPolicy) Invalidate(w []uint64, way int) { w[way] = srripMax }

func (srripPolicy) Init(w []uint64) {
	for i := range w {
		w[i] = srripMax
	}
}

func (srripPolicy) Victim(w []uint64, _ int) int {
	for {
		for way, v := range w {
			if v >= srripMax {
				return way
			}
		}
		for way := range w {
			w[way]++
		}
	}
}

func (srripPolicy) Check(w []uint64) error {
	for _, v := range w {
		if v > srripMax {
			return fmt.Errorf("cache: srrip state: rrpv %d out of range", v)
		}
	}
	return nil
}

// extendedPolicyByName resolves the additional policies; see PolicyByName.
func extendedPolicyByName(name string, rng *rand.Rand) (Policy, error) {
	switch name {
	case "nru":
		if rng == nil {
			return nil, fmt.Errorf("cache: nru policy requires a random source")
		}
		return NewNRU(rng), nil
	case "srrip":
		return NewSRRIP(), nil
	default:
		return nil, fmt.Errorf("cache: unknown replacement policy %q", name)
	}
}

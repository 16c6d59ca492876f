package cpucache

import (
	"fmt"
	"math/bits"

	"meecc/internal/cache"
	"meecc/internal/dram"
)

// LineBufState is one LLC-resident plaintext line buffer in a serialized
// hierarchy image: the line's content only. Which line it holds, and
// whether it is dirty, is the LLC image's record: the buffer belongs to the
// valid way it is listed for.
type LineBufState struct {
	Data [dram.LineSize]byte
}

// State is the serializable image of a Hierarchy: every cache level plus the
// plaintext line buffers. The config is not stored — it comes back from the
// platform-level machine config at decode time.
type State struct {
	L1   []*cache.State
	L2   []*cache.State
	LLC  *cache.State
	Bufs []LineBufState // one per valid way of LLC, in [set*ways+way] order
}

// ExportState captures the hierarchy as a deep-copied State. Only the ways
// the LLC image marks valid hold a line, so only the LLC's listed sets are
// scanned for buffers.
func (h *Hierarchy) ExportState() *State {
	st := &State{LLC: h.llc.ExportState()}
	for _, c := range h.l1 {
		st.L1 = append(st.L1, c.ExportState())
	}
	for _, c := range h.l2 {
		st.L2 = append(st.L2, c.ExportState())
	}
	for _, ss := range st.LLC.Listed {
		bufs := h.bufs.Read(ss.Set)
		for m := ss.Valid; m != 0; m &= m - 1 {
			b := &bufs[bits.TrailingZeros64(m)]
			st.Bufs = append(st.Bufs, LineBufState{Data: b.data})
		}
	}
	return st
}

// HierarchyFromState rebuilds a frozen hierarchy from a serialized image.
// The result never runs directly — Fork rebinds randomized policies to a
// live engine stream. A config New would refuse is an error, and so are
// geometry mismatches against cfg, a tag in a set its line address does not
// mask to, a private line the LLC does not hold (the one-scan Flush relies
// on an inclusive LLC), and a buffer list that is not one buffer per valid
// LLC line. Only sets that hold a line get a block.
func HierarchyFromState(cfg Config, st *State) (*Hierarchy, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if len(st.L1) != cfg.Cores || len(st.L2) != cfg.Cores {
		return nil, fmt.Errorf("cpucache: %d/%d private cache states, want %d", len(st.L1), len(st.L2), cfg.Cores)
	}
	llc, err := levelFromState(st.LLC, cfg.LLCSets, cfg.LLCWays, nil)
	if err != nil {
		return nil, err
	}
	h := newHierarchy(cfg, newBufs(cfg))
	h.llc = llc
	for i := 0; i < cfg.Cores; i++ {
		l1, err := levelFromState(st.L1[i], cfg.L1Sets, cfg.L1Ways, llc)
		if err != nil {
			return nil, err
		}
		l2, err := levelFromState(st.L2[i], cfg.L2Sets, cfg.L2Ways, llc)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
		h.l2 = append(h.l2, l2)
	}
	if len(st.Bufs) != llc.ValidCount() {
		return nil, fmt.Errorf("cpucache: %d line buffers for %d valid LLC lines", len(st.Bufs), llc.ValidCount())
	}
	i := 0
	llc.Lines(func(set, way int, _ cache.Line) {
		// The serialized image does not carry private-cache presence, so
		// restore with the conservative all-cores mask.
		b := &st.Bufs[i]
		*h.ownBuf(set, way) = lineBuf{data: b.Data, cores: h.allCores()}
		i++
	})
	return h, nil
}

// levelFromState decodes one cache level of the given geometry. Each of its
// tags must sit in the set its line address masks to and, in a private
// level, name a line that llc holds.
func levelFromState(st *cache.State, sets, ways int, llc *cache.Cache) (*cache.Cache, error) {
	if st == nil {
		return nil, fmt.Errorf("cpucache: missing cache state")
	}
	if st.Sets != sets || st.Ways != ways {
		return nil, fmt.Errorf("cpucache: %s state %dx%d does not match config %dx%d", st.Name, st.Sets, st.Ways, sets, ways)
	}
	c, err := cache.FromState(st, nil)
	if err != nil {
		return nil, fmt.Errorf("cpucache: %w", err)
	}
	c.Lines(func(set, _ int, l cache.Line) {
		switch {
		case err != nil:
		case int(uint64(l.Tag)%uint64(sets)) != set:
			err = fmt.Errorf("cpucache: %s set %d holds line %#x of another set", st.Name, set, l.Tag)
		case llc != nil && !llc.Contains(int(uint64(l.Tag)%uint64(llc.Sets())), l.Tag):
			err = fmt.Errorf("cpucache: %s holds line %#x, which the LLC does not", st.Name, l.Tag)
		}
	})
	return c, err
}

package cpucache

import (
	"fmt"
	"math/bits"

	"meecc/internal/cache"
	"meecc/internal/dram"
)

// LineBufState is one LLC-resident plaintext line buffer in a serialized
// hierarchy image. Which line it holds is the LLC image's record: the
// buffer belongs to the valid way it is listed for.
type LineBufState struct {
	Data  [dram.LineSize]byte
	Dirty bool
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
			st.Bufs = append(st.Bufs, LineBufState{Data: b.data, Dirty: b.dirty})
		}
	}
	return st
}

// HierarchyFromState rebuilds a frozen hierarchy from a serialized image.
// The result never runs directly — Fork rebinds randomized policies to a
// live engine stream. A config New would refuse is an error, and so are
// geometry mismatches against cfg and a buffer list that is not one buffer
// per valid LLC line. Only sets that hold a line get a block.
func HierarchyFromState(cfg Config, st *State) (*Hierarchy, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if len(st.L1) != cfg.Cores || len(st.L2) != cfg.Cores {
		return nil, fmt.Errorf("cpucache: %d/%d private cache states, want %d", len(st.L1), len(st.L2), cfg.Cores)
	}
	if st.LLC == nil {
		return nil, fmt.Errorf("cpucache: missing LLC state")
	}
	if st.LLC.Sets != cfg.LLCSets || st.LLC.Ways != cfg.LLCWays {
		return nil, fmt.Errorf("cpucache: LLC state %dx%d does not match config %dx%d",
			st.LLC.Sets, st.LLC.Ways, cfg.LLCSets, cfg.LLCWays)
	}
	llc, err := cache.FromState(st.LLC, nil)
	if err != nil {
		return nil, fmt.Errorf("cpucache: %w", err)
	}
	h := newHierarchy(cfg, newBufs(cfg))
	h.llc = llc
	for i := 0; i < cfg.Cores; i++ {
		if st.L1[i] == nil || st.L2[i] == nil {
			return nil, fmt.Errorf("cpucache: missing private cache state for core %d", i)
		}
		if st.L1[i].Sets != cfg.L1Sets || st.L1[i].Ways != cfg.L1Ways ||
			st.L2[i].Sets != cfg.L2Sets || st.L2[i].Ways != cfg.L2Ways {
			return nil, fmt.Errorf("cpucache: core %d private cache geometry mismatch", i)
		}
		l1, err := cache.FromState(st.L1[i], nil)
		if err != nil {
			return nil, fmt.Errorf("cpucache: %w", err)
		}
		l2, err := cache.FromState(st.L2[i], nil)
		if err != nil {
			return nil, fmt.Errorf("cpucache: %w", err)
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
		*h.ownBuf(set, way) = lineBuf{data: b.Data, dirty: b.Dirty, cores: h.allCores()}
		i++
	})
	return h, nil
}

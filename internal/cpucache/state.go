package cpucache

import (
	"fmt"
	"math/bits"

	"meecc/internal/cache"
	"meecc/internal/dram"
)

// LineBufState is one LLC-resident plaintext line buffer in a serialized
// hierarchy image, addressed by its dense [set*ways+way] slot.
type LineBufState struct {
	Idx   int
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
	Bufs []LineBufState // ascending Idx
}

// ExportState captures the hierarchy as a deep-copied State. Only the ways
// the LLC image marks valid hold a buffer, so only the LLC's listed sets
// are scanned for one.
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
			way := bits.TrailingZeros64(m)
			if b := &bufs[way]; b.valid {
				st.Bufs = append(st.Bufs, LineBufState{Idx: ss.Set*h.cfg.LLCWays + way, Data: b.data, Dirty: b.dirty})
			}
		}
	}
	return st
}

// HierarchyFromState rebuilds a frozen hierarchy from a serialized image.
// The result never runs directly — Fork rebinds randomized policies to a
// live engine stream. A config New would refuse is an error, and so are
// geometry mismatches against cfg and buffers that do not match the valid
// LLC lines one for one (Flush relies on every valid LLC line having one).
// Only sets that hold a buffer get a block.
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
	last := -1
	for _, b := range st.Bufs {
		if b.Idx <= last || b.Idx >= cfg.LLCSets*cfg.LLCWays {
			return nil, fmt.Errorf("cpucache: buffer slot %d out of order or range", b.Idx)
		}
		if !st.LLC.Valid(b.Idx/cfg.LLCWays, b.Idx%cfg.LLCWays) {
			return nil, fmt.Errorf("cpucache: buffer slot %d holds no valid LLC line", b.Idx)
		}
		last = b.Idx
		// The serialized image does not carry private-cache presence, so
		// restore with the conservative all-cores mask.
		*h.ownBuf(b.Idx/cfg.LLCWays, b.Idx%cfg.LLCWays) = lineBuf{data: b.Data, dirty: b.Dirty, valid: true, cores: h.allCores()}
	}
	return h, nil
}

package dram

import (
	"fmt"

	"meecc/internal/sim"
)

// PageBytes is the backing-store page granularity, exported for snapshot
// serializers.
const PageBytes = pageBytes

// PageImage is one materialized backing page in a serialized memory image.
type PageImage struct {
	Index uint64 // page index: base address / PageBytes
	Data  []byte // PageBytes long; may alias frozen snapshot memory
}

// SnapshotState is the serializable image of a memory Snapshot: config,
// timing state, and the materialized pages in ascending address order.
type SnapshotState struct {
	Cfg         Config
	Allocated   int
	OpenRow     []int64
	BanksBusy   []sim.Cycles
	RefreshedAt []int64
	Stats       Stats
	Pages       []PageImage
}

// ExportState flattens the snapshot for serialization. Page data aliases the
// snapshot's frozen pages (they are immutable under copy-on-write), so the
// export itself copies no page bytes; callers must treat Data as read-only.
func (s *Snapshot) ExportState() *SnapshotState {
	st := &SnapshotState{
		Cfg:         s.cfg,
		Allocated:   s.allocated,
		OpenRow:     make([]int64, len(s.openRow)),
		BanksBusy:   make([]sim.Cycles, len(s.banks)),
		RefreshedAt: make([]int64, len(s.refreshedAt)),
		Stats:       s.stats,
	}
	copy(st.OpenRow, s.openRow)
	copy(st.RefreshedAt, s.refreshedAt)
	for i := range s.banks {
		st.BanksBusy[i] = s.banks[i].BusyUntil()
	}
	for ci, ch := range s.dir {
		if ch == nil {
			continue
		}
		for pi, p := range ch.pages {
			if p == nil {
				continue
			}
			idx := uint64(ci)*chunkPages + uint64(pi)
			st.Pages = append(st.Pages, PageImage{Index: idx, Data: p.data[:]})
		}
	}
	return st
}

// SnapshotFromState rebuilds an immutable Snapshot from a serialized image.
// All geometry is validated and pages must arrive in strictly ascending
// index order with exactly PageBytes of data each, so a corrupted image
// returns an error rather than producing a silently wrong memory.
func SnapshotFromState(st *SnapshotState) (*Snapshot, error) {
	if err := checkConfig(st.Cfg); err != nil {
		return nil, err
	}
	if len(st.OpenRow) != st.Cfg.Banks || len(st.BanksBusy) != st.Cfg.Banks ||
		len(st.RefreshedAt) != st.Cfg.Banks {
		return nil, fmt.Errorf("dram: bank state lengths %d/%d/%d, want %d",
			len(st.OpenRow), len(st.BanksBusy), len(st.RefreshedAt), st.Cfg.Banks)
	}
	nPages := (st.Cfg.Size + pageBytes - 1) / pageBytes
	gen := nextGeneration()
	s := &Snapshot{
		cfg:         st.Cfg,
		dir:         make([]*chunk, (st.Cfg.Size+chunkBytes-1)/chunkBytes),
		allocated:   st.Allocated,
		openRow:     make([]int64, st.Cfg.Banks),
		banks:       make([]sim.Resource, st.Cfg.Banks),
		refreshedAt: make([]int64, st.Cfg.Banks),
		stats:       st.Stats,
	}
	copy(s.openRow, st.OpenRow)
	copy(s.refreshedAt, st.RefreshedAt)
	for i, b := range st.BanksBusy {
		s.banks[i] = sim.ResumeResource(b)
	}
	last := int64(-1)
	for _, pg := range st.Pages {
		if pg.Index >= nPages {
			return nil, fmt.Errorf("dram: page index %d beyond capacity (%d pages)", pg.Index, nPages)
		}
		if int64(pg.Index) <= last {
			return nil, fmt.Errorf("dram: page index %d out of order", pg.Index)
		}
		last = int64(pg.Index)
		if len(pg.Data) != pageBytes {
			return nil, fmt.Errorf("dram: page %d has %d bytes, want %d", pg.Index, len(pg.Data), pageBytes)
		}
		ci := pg.Index / chunkPages
		pi := pg.Index % chunkPages
		ch := s.dir[ci]
		if ch == nil {
			ch = &chunk{gen: gen}
			s.dir[ci] = ch
		}
		p := &page{gen: gen}
		copy(p.data[:], pg.Data)
		ch.pages[pi] = p
	}
	return s, nil
}

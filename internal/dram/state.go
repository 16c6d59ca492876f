package dram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"meecc/internal/sim"
)

// PageBytes is the backing-store page granularity, exported for snapshot
// serializers.
const PageBytes = pageBytes

// pageLines is the number of lines in a page: one bit each in a
// PageImage's Lines mask.
const pageLines = pageBytes / LineSize

// PageImage is one materialized backing page in a serialized memory image.
// Only its nonzero lines travel; a page of zeros still does, with an empty
// mask, because it was materialized.
type PageImage struct {
	Index uint64 // page index: base address / PageBytes
	Lines uint64 // bit l set when line l holds a nonzero byte
	Data  []byte // the lines Lines marks, LineSize bytes each, in line order
}

// zeroLine reports whether line, LineSize bytes long, holds only zeros. It
// compares words, not bytes.
func zeroLine(line []byte) bool {
	var x uint64
	for i := 0; i < LineSize; i += 8 {
		x |= binary.LittleEndian.Uint64(line[i:])
	}
	return x == 0
}

// nonzeroLines returns the mask of p's lines that hold a nonzero byte.
func (p *page) nonzeroLines() uint64 {
	var m uint64
	for l := 0; l < pageLines; l++ {
		if !zeroLine(p.data[l*LineSize : (l+1)*LineSize]) {
			m |= 1 << l
		}
	}
	return m
}

// SnapshotState is the serializable image of a memory Snapshot: config,
// timing state, and the materialized pages in ascending address order.
type SnapshotState struct {
	Cfg       Config
	Allocated int
	OpenRow   []int64
	BanksBusy []sim.Cycles
	Pages     []PageImage
}

// ExportState flattens the snapshot for serialization. It copies each
// page's nonzero lines, and all of them share one buffer.
func (s *Snapshot) ExportState() *SnapshotState {
	st := &SnapshotState{
		Cfg:       s.cfg,
		Allocated: s.allocated,
		OpenRow:   make([]int64, len(s.openRow)),
		BanksBusy: make([]sim.Cycles, len(s.banks)),
	}
	copy(st.OpenRow, s.openRow)
	for i := range s.banks {
		st.BanksBusy[i] = s.banks[i].BusyUntil()
	}
	var pages []*page
	nLines := 0
	for ci, ch := range s.dir {
		if ch == nil {
			continue
		}
		for pi, p := range ch.pages {
			if p == nil {
				continue
			}
			m := p.nonzeroLines()
			st.Pages = append(st.Pages, PageImage{Index: uint64(ci)*chunkPages + uint64(pi), Lines: m})
			pages = append(pages, p)
			nLines += bits.OnesCount64(m)
		}
	}
	buf := make([]byte, 0, nLines*LineSize)
	for i, p := range pages {
		start := len(buf)
		for m := st.Pages[i].Lines; m != 0; m &= m - 1 {
			o := bits.TrailingZeros64(m) * LineSize
			buf = append(buf, p.data[o:o+LineSize]...)
		}
		st.Pages[i].Data = buf[start:len(buf):len(buf)]
	}
	return st
}

// SnapshotFromState rebuilds an immutable Snapshot from a serialized image.
// All geometry is validated, pages must arrive in strictly ascending index
// order, and each must carry exactly the lines its mask marks, none of
// them all zero, so a corrupted image returns an error rather than
// producing a silently wrong memory, and one that decodes re-exports
// unchanged.
func SnapshotFromState(st *SnapshotState) (*Snapshot, error) {
	if err := checkConfig(st.Cfg); err != nil {
		return nil, err
	}
	if len(st.OpenRow) != st.Cfg.Banks || len(st.BanksBusy) != st.Cfg.Banks {
		return nil, fmt.Errorf("dram: bank state lengths %d/%d, want %d",
			len(st.OpenRow), len(st.BanksBusy), st.Cfg.Banks)
	}
	nPages := (st.Cfg.Size + pageBytes - 1) / pageBytes
	gen := nextGeneration()
	s := &Snapshot{
		cfg:       st.Cfg,
		dir:       make([]*chunk, (st.Cfg.Size+chunkBytes-1)/chunkBytes),
		allocated: st.Allocated,
		openRow:   make([]int64, st.Cfg.Banks),
		banks:     make([]sim.Resource, st.Cfg.Banks),
	}
	copy(s.openRow, st.OpenRow)
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
		if want := bits.OnesCount64(pg.Lines) * LineSize; len(pg.Data) != want {
			return nil, fmt.Errorf("dram: page %d has %d bytes for line mask %#x, want %d", pg.Index, len(pg.Data), pg.Lines, want)
		}
		ci := pg.Index / chunkPages
		pi := pg.Index % chunkPages
		ch := s.dir[ci]
		if ch == nil {
			ch = &chunk{gen: gen}
			s.dir[ci] = ch
		}
		p := &page{gen: gen}
		data := pg.Data
		for m := pg.Lines; m != 0; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			if zeroLine(data[:LineSize]) {
				return nil, fmt.Errorf("dram: page %d line %d is listed but zero", pg.Index, l)
			}
			copy(p.data[l*LineSize:], data[:LineSize])
			data = data[LineSize:]
		}
		ch.pages[pi] = p
	}
	return s, nil
}

package dram

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"meecc/internal/sim"
	"meecc/internal/wire"
)

// pageLines is the number of lines in a page: one bit each in a page's
// line mask on the wire.
const pageLines = pageBytes / LineSize

// pageWire is a page's fixed fields on the wire: index and line mask; the
// lines the mask marks follow.
const pageWire = 8 + 8

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

// AppendImage appends the snapshot's image to w: each bank's open row and
// busy-until clock, then the materialized pages in ascending address
// order, each its index (base address / 4096), the mask of its lines that
// hold a nonzero byte, and those lines in line order. A page of zeros
// still travels, with an empty mask, because it was materialized. The
// config is not in it: the platform's config carries it.
func (s *Snapshot) AppendImage(w *wire.Writer) {
	w.I64s(s.openRow)
	w.U64(uint64(len(s.banks)))
	for i := range s.banks {
		w.I64(int64(s.banks[i].BusyUntil()))
	}
	w.U64(uint64(countPages(s.dir)))
	for ci, ch := range s.dir {
		if ch == nil {
			continue
		}
		for pi, p := range ch.pages {
			if p == nil {
				continue
			}
			m := p.nonzeroLines()
			w.U64(uint64(ci)*chunkPages + uint64(pi))
			w.U64(m)
			for ; m != 0; m &= m - 1 {
				o := bits.TrailingZeros64(m) * LineSize
				w.Raw(p.data[o : o+LineSize])
			}
		}
	}
}

// ReadSnapshot reads the image AppendImage appends of a memory of cfg and
// rebuilds the snapshot. A config New refuses (checkConfig), bank state
// of another length than cfg's banks, a page index out of order or beyond
// the memory, and a listed line of zeros are errors, so a corrupted image
// returns an error rather than a silently wrong memory, and one that reads
// back appends unchanged.
func ReadSnapshot(r *wire.Reader, cfg Config) (*Snapshot, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	// The image's bank state, whose lengths the payload bounds, must match
	// cfg's banks before cfg's bank count sizes anything.
	openRow := r.I64s()
	nb := r.Count(8)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(openRow) != cfg.Banks || nb != cfg.Banks {
		return nil, fmt.Errorf("dram: bank state lengths %d/%d, want %d", len(openRow), nb, cfg.Banks)
	}
	s := &Snapshot{
		cfg:     cfg,
		dir:     make([]*chunk, (cfg.Size+chunkBytes-1)/chunkBytes),
		openRow: openRow,
		banks:   make([]sim.Resource, cfg.Banks),
	}
	for i := range s.banks {
		s.banks[i] = sim.ResumeResource(sim.Cycles(r.I64()))
	}
	nPages := (cfg.Size + pageBytes - 1) / pageBytes
	gen := nextGeneration()
	last := int64(-1)
	for n, i := r.Count(pageWire), 0; i < n && r.Err() == nil; i++ {
		index, lines := r.U64(), r.U64()
		if r.Err() != nil {
			break
		}
		if index >= nPages {
			return nil, fmt.Errorf("dram: page index %d beyond capacity (%d pages)", index, nPages)
		}
		if int64(index) <= last {
			return nil, fmt.Errorf("dram: page index %d out of order", index)
		}
		last = int64(index)
		p := &page{gen: gen}
		for m := lines; m != 0 && r.Err() == nil; m &= m - 1 {
			l := bits.TrailingZeros64(m)
			line := r.Raw(LineSize)
			if line != nil && zeroLine(line) {
				return nil, fmt.Errorf("dram: page %d line %d is listed but zero", index, l)
			}
			copy(p.data[l*LineSize:], line)
		}
		ch := s.dir[index/chunkPages]
		if ch == nil {
			ch = &chunk{gen: gen}
			s.dir[index/chunkPages] = ch
		}
		ch.pages[index%chunkPages] = p
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

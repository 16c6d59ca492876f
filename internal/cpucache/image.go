package cpucache

import (
	"fmt"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/wire"
)

// AppendImage appends the hierarchy's image to w: the counted L1 images,
// the counted L2 images and the LLC's image, then the plaintext line
// buffers, one per valid LLC way in way order, each the line's data; the
// LLC's image records which line it is and whether it is dirty. The config
// is not in it: the platform's config carries it.
func (h *Hierarchy) AppendImage(w *wire.Writer) {
	appendLevels(w, h.l1)
	appendLevels(w, h.l2)
	h.llc.AppendImage(w)
	w.U64(uint64(h.llc.ValidCount()))
	h.llc.Lines(func(set, way int, _ cache.Line) { w.Raw(h.buf(set, way).data[:]) })
}

// appendLevels appends a counted list of cache images.
func appendLevels(w *wire.Writer, cs []*cache.Cache) {
	w.U64(uint64(len(cs)))
	for _, c := range cs {
		c.AppendImage(w)
	}
}

// ReadHierarchy reads the image AppendImage appends and rebuilds it as a
// frozen hierarchy of cfg's geometry. The result never runs directly — Fork
// rebinds randomized policies to a live engine stream. A config New refuses
// (checkConfig) is an error, and so are a private level count other than
// cfg's cores, a cache image that cache.ReadImage rejects or whose geometry
// is not its level's, a tag in a set its line address does not mask to, a
// private line the LLC does not hold (the one-scan Flush relies on an
// inclusive LLC), and a buffer count other than one per valid LLC line.
// Only sets that hold a line get a block.
func ReadHierarchy(r *wire.Reader, cfg Config) (*Hierarchy, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	l1, err := readLevels(r, cfg.Cores, cfg.L1Sets, cfg.L1Ways)
	if err != nil {
		return nil, err
	}
	l2, err := readLevels(r, cfg.Cores, cfg.L2Sets, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	llc, err := readLevel(r, cfg.LLCSets, cfg.LLCWays)
	if err != nil {
		return nil, err
	}
	// The LLC's image has passed cache.ReadImage's geometry checks, so
	// cfg's LLC ways are 1..64 before they size the line buffers.
	h := newHierarchy(cfg, newBufs(cfg))
	h.l1, h.l2, h.llc = l1, l2, llc
	for _, levels := range [][]*cache.Cache{h.l1, h.l2} {
		for _, c := range levels {
			c.Lines(func(_, _ int, l cache.Line) {
				if err == nil && !h.llc.Contains(int(uint64(l.Tag)&h.llcMask), l.Tag) {
					err = fmt.Errorf("cpucache: %s holds line %#x, which the LLC does not", c.Name(), l.Tag)
				}
			})
		}
	}
	if err != nil {
		return nil, err
	}
	if n := r.Count(dram.LineSize); r.Err() == nil && n != h.llc.ValidCount() {
		return nil, fmt.Errorf("cpucache: %d line buffers for %d valid LLC lines", n, h.llc.ValidCount())
	}
	h.llc.Lines(func(set, way int, _ cache.Line) {
		// The image does not carry private-cache presence, so restore with
		// the conservative all-cores mask.
		b := h.ownBuf(set, way)
		copy(b.data[:], r.Raw(dram.LineSize))
		b.cores = h.allCores()
	})
	if err := r.Err(); err != nil {
		return nil, err
	}
	return h, nil
}

// readLevels reads a counted list of n private cache images of one level.
func readLevels(r *wire.Reader, n, sets, ways int) ([]*cache.Cache, error) {
	if got := r.Count(1); r.Err() == nil && got != n {
		return nil, fmt.Errorf("cpucache: %d private cache images, want %d", got, n)
	}
	cs := make([]*cache.Cache, 0, n)
	for i := 0; i < n; i++ {
		c, err := readLevel(r, sets, ways)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// readLevel reads one cache level of the given geometry, each of whose tags
// must sit in the set its line address masks to.
func readLevel(r *wire.Reader, sets, ways int) (*cache.Cache, error) {
	c, err := cache.ReadImage(r, sets, ways)
	if err != nil {
		return nil, fmt.Errorf("cpucache: %w", err)
	}
	c.Lines(func(set, _ int, l cache.Line) {
		if err == nil && int(uint64(l.Tag)%uint64(sets)) != set {
			err = fmt.Errorf("cpucache: %s set %d holds line %#x of another set", c.Name(), set, l.Tag)
		}
	})
	return c, err
}

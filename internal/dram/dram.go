// Package dram models main memory: a sparse byte-addressable backing store
// plus a bank/row-buffer timing model with seeded jitter. The memory
// controller's queueing behaviour is represented by per-bank busy-until
// resources, so concurrent actors experience realistic contention.
package dram

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"

	"meecc/internal/sim"
)

// Addr is a physical byte address.
type Addr uint64

// LineSize is the cache-line granularity used throughout the simulator.
const LineSize = 64

// pageBytes is the allocation granularity of the sparse backing store.
const pageBytes = 4096

// chunkPages pages form one directory chunk (2 MB of address space). The
// backing store is a two-level structure — a dense chunk directory over
// lazily materialized chunks of page pointers — so the per-access page
// lookup is two array indexes instead of a map probe, and snapshots can
// share untouched chunks between forks copy-on-write.
const (
	chunkPages = 512
	chunkBytes = chunkPages * pageBytes
)

// generation tags implement copy-on-write ownership: a view may write a
// chunk or page in place only when its tag matches the view's own
// generation; anything older is shared with a snapshot and must be cloned
// first. Tags only gate cloning — they never influence simulated behaviour —
// so the process-global atomic does not perturb determinism.
var generations atomic.Uint64

func nextGeneration() uint64 { return generations.Add(1) }

type page struct {
	gen uint64
	// writes is the page's write generation (see WriteGen). Unlike gen it
	// tracks content, not ownership.
	writes uint64
	data   [pageBytes]byte
}

type chunk struct {
	gen   uint64
	pages [chunkPages]*page
}

func (c *chunk) clone(gen uint64) *chunk {
	n := &chunk{gen: gen}
	n.pages = c.pages
	return n
}

// Config describes DRAM geometry and jitter. Banks and RowBytes must be
// powers of two: an address's bank and row are its bits.
type Config struct {
	Size        uint64  // total physical bytes
	Banks       int     // number of independent banks
	RowBytes    uint64  // row-buffer size per bank
	JitterSigma float64 // gaussian latency jitter (cycles)
}

// Mean access latencies in CPU cycles as seen from the core. They fold in
// the on-chip traversal after an LLC miss, which is why they are larger
// than raw DRAM timings. The controller keeps rows open.
const (
	RowHitLat  = 215 // open-row access
	RowMissLat = 265 // row conflict or closed-row access
	WriteExtra = 10  // added to writes
)

// DefaultConfig mirrors the paper's testbed scale: 32 GB of DRAM behind a
// Skylake-class memory controller, calibrated so an independent cache-line
// read costs ~250 cycles end to end.
func DefaultConfig() Config {
	return Config{
		Size:        32 << 30,
		Banks:       16,
		RowBytes:    8192,
		JitterSigma: 10,
	}
}

// DRAM is the main-memory model. Not safe for concurrent use (the simulation
// engine serializes actors).
type DRAM struct {
	cfg       Config
	dir       []*chunk // two-level page directory, chunk per 2 MB
	gen       uint64   // COW ownership generation of this view
	allocated int      // pages materialized by this view and its ancestry
	openRow   []int64  // per-bank open row, -1 = closed
	banks     []sim.Resource
}

// checkConfig is the one geometry rule New and SnapshotFromState share: a
// nonzero size, and power-of-two bank counts and row sizes, which
// bankAndRow's shifts rely on.
func checkConfig(cfg Config) error {
	if cfg.Size == 0 || cfg.Banks <= 0 || cfg.Banks&(cfg.Banks-1) != 0 ||
		cfg.RowBytes == 0 || cfg.RowBytes&(cfg.RowBytes-1) != 0 {
		return fmt.Errorf("dram: invalid config %+v (banks and row bytes must be powers of two)", cfg)
	}
	return nil
}

// New builds a DRAM from cfg. It panics on a config checkConfig rejects.
func New(cfg Config) *DRAM {
	if err := checkConfig(cfg); err != nil {
		panic(err.Error())
	}
	d := &DRAM{
		cfg:     cfg,
		dir:     make([]*chunk, (cfg.Size+chunkBytes-1)/chunkBytes),
		gen:     nextGeneration(),
		openRow: make([]int64, cfg.Banks),
		banks:   make([]sim.Resource, cfg.Banks),
	}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d
}

// Snapshot freezes the current memory image and timing state. The receiver
// stays usable: it is flipped to a fresh generation so later writes clone
// shared pages instead of mutating the frozen image. Snapshots are
// immutable and safe to Fork from multiple goroutines.
type Snapshot struct {
	cfg       Config
	dir       []*chunk
	allocated int
	openRow   []int64
	banks     []sim.Resource
}

// Snapshot captures the DRAM for later forking; see Snapshot's doc.
func (d *DRAM) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg:       d.cfg,
		dir:       make([]*chunk, len(d.dir)),
		allocated: d.allocated,
		openRow:   make([]int64, len(d.openRow)),
		banks:     make([]sim.Resource, len(d.banks)),
	}
	copy(s.dir, d.dir)
	copy(s.openRow, d.openRow)
	copy(s.banks, d.banks)
	// Everything reachable from s.dir is now shared: move the parent to a
	// new generation so it copy-on-writes against the frozen image too.
	d.gen = nextGeneration()
	return s
}

// Fork builds an independent DRAM view over the snapshot. Untouched pages
// are shared with the snapshot; the first write to a page clones it. Forks
// of one snapshot may be created and run concurrently (each fork itself is
// still single-threaded, like DRAM).
func (s *Snapshot) Fork() *DRAM {
	d := &DRAM{
		cfg:       s.cfg,
		dir:       make([]*chunk, len(s.dir)),
		gen:       nextGeneration(),
		allocated: s.allocated,
		openRow:   make([]int64, len(s.openRow)),
		banks:     make([]sim.Resource, len(s.banks)),
	}
	copy(d.dir, s.dir)
	copy(d.openRow, s.openRow)
	copy(d.banks, s.banks)
	return d
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Size returns the total physical capacity in bytes.
func (d *DRAM) Size() uint64 { return d.cfg.Size }

// bankAndRow maps an address onto its bank and row (row interleaving across
// banks at row granularity). Both counts are powers of two, so the
// divisions are shifts.
func (d *DRAM) bankAndRow(addr Addr) (bank int, row int64) {
	banks := uint64(d.cfg.Banks)
	rowIdx := uint64(addr) >> bits.TrailingZeros64(d.cfg.RowBytes)
	return int(rowIdx & (banks - 1)), int64(rowIdx >> bits.TrailingZeros64(banks))
}

// Access performs the timing side of one line-granularity access beginning
// at cycle now, updating bank/row state, and returns the total latency the
// requester observes (queueing stall + service time + jitter).
func (d *DRAM) Access(now sim.Cycles, rng *rand.Rand, addr Addr, write bool) sim.Cycles {
	if uint64(addr) >= d.cfg.Size {
		panic(fmt.Sprintf("dram: access at %#x beyond capacity %#x", addr, d.cfg.Size))
	}
	bank, row := d.bankAndRow(addr)
	mean := float64(RowMissLat)
	if d.openRow[bank] == row {
		mean = RowHitLat
	} else {
		d.openRow[bank] = row
	}
	if write {
		mean += WriteExtra
	}
	service := sim.Gauss(rng, mean, d.cfg.JitterSigma)
	stall := d.banks[bank].Acquire(now, service)
	return stall + service
}

// pageFor returns the backing page containing addr, materializing it on
// demand (reads of untouched memory allocate a zero page, matching the
// original sparse store so footprint accounting is unchanged). With write
// set, the returned page is private to this view: pages shared with a
// snapshot are cloned first.
func (d *DRAM) pageFor(addr Addr, write bool) (*page, uint64) {
	base := addr &^ (pageBytes - 1)
	ci := uint64(base) / chunkBytes
	pi := (uint64(base) % chunkBytes) / pageBytes
	ch := d.dir[ci]
	if ch == nil {
		ch = &chunk{gen: d.gen}
		d.dir[ci] = ch
	}
	p := ch.pages[pi]
	if p == nil {
		if ch.gen != d.gen {
			ch = ch.clone(d.gen)
			d.dir[ci] = ch
		}
		p = &page{gen: d.gen}
		ch.pages[pi] = p
		d.allocated++
		return p, uint64(addr - base)
	}
	if write && p.gen != d.gen {
		if ch.gen != d.gen {
			ch = ch.clone(d.gen)
			d.dir[ci] = ch
		}
		np := &page{gen: d.gen, writes: p.writes, data: p.data}
		ch.pages[pi] = np
		p = np
	}
	return p, uint64(addr - base)
}

// ReadBytes copies len(buf) bytes starting at addr into buf. Unwritten
// memory reads as zero.
func (d *DRAM) ReadBytes(addr Addr, buf []byte) {
	if uint64(addr)+uint64(len(buf)) > d.cfg.Size {
		panic(fmt.Sprintf("dram: read [%#x,+%d) beyond capacity", addr, len(buf)))
	}
	for n := 0; n < len(buf); {
		p, off := d.pageFor(addr+Addr(n), false)
		c := copy(buf[n:], p.data[off:])
		n += c
	}
}

// WriteBytes stores data at addr, bumping the write generation of every
// page it touches.
func (d *DRAM) WriteBytes(addr Addr, data []byte) {
	if uint64(addr)+uint64(len(data)) > d.cfg.Size {
		panic(fmt.Sprintf("dram: write [%#x,+%d) beyond capacity", addr, len(data)))
	}
	for n := 0; n < len(data); {
		p, off := d.pageFor(addr+Addr(n), true)
		p.writes++
		c := copy(p.data[off:], data[n:])
		n += c
	}
}

// WriteGen returns the write generation of the page holding addr. While it
// is unchanged the page's bytes are too: every WriteBytes that touches the
// page bumps it, and a view that copies a page it shares with a snapshot
// carries it over. A page never materialized reads 0, and asking allocates
// nothing. The generation is not serialized: a page decoded from a
// SnapshotState starts again at 0.
func (d *DRAM) WriteGen(addr Addr) uint64 {
	ch := d.dir[uint64(addr)/chunkBytes]
	if ch == nil {
		return 0
	}
	if p := ch.pages[uint64(addr)%chunkBytes/pageBytes]; p != nil {
		return p.writes
	}
	return 0
}

// ReadLine reads the 64-byte line containing addr (aligned down).
func (d *DRAM) ReadLine(addr Addr) [LineSize]byte {
	var line [LineSize]byte
	d.ReadBytes(addr&^(LineSize-1), line[:])
	return line
}

// WriteLine stores a 64-byte line at the line containing addr (aligned down).
func (d *DRAM) WriteLine(addr Addr, line [LineSize]byte) {
	d.WriteBytes(addr&^(LineSize-1), line[:])
}

// AllocatedPages reports how many 4 KB backing pages have been materialized
// (diagnostics; the store is sparse so 32 GB costs nothing up front). A
// forked view counts pages inherited from its snapshot plus its own.
func (d *DRAM) AllocatedPages() int { return d.allocated }

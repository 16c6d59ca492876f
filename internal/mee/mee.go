// Package mee models the Memory Encryption Engine: the hardware unit inside
// the memory controller that encrypts/decrypts protected-region traffic and
// verifies its integrity and freshness against the counter tree, caching
// recently verified tree lines in the MEE cache.
//
// The properties the covert channel exploits are implemented faithfully:
//
//   - the MEE cache is shared by all cores (it sits in the memory
//     controller, not in any core);
//   - every protected data access checks the covering versions line first,
//     and the tree walk stops at the first MEE-cache hit (Section 2.2 of the
//     paper), so access latency reveals the deepest cached level;
//   - versions lines occupy odd cache sets and PD_Tag/L0..L2 lines even sets
//     (Section 4.1);
//   - clflush does not touch the MEE cache — there is deliberately no flush
//     on the public access path;
//   - the engine is single-ported, so concurrent walks from different cores
//     serialize and contend.
package mee

import (
	"fmt"
	"math/rand/v2"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// HitLevel reports the deepest integrity-tree level that hit in the MEE
// cache during a walk — the quantity Figure 5 of the paper histograms.
type HitLevel int

const (
	// HitVersions: the versions line itself was cached; fastest path.
	HitVersions HitLevel = iota
	// HitL0..HitL2: the walk fetched lower levels from DRAM and first hit
	// the cache at this level.
	HitL0
	HitL1
	HitL2
	// HitRoot: nothing was cached; the walk went all the way to the on-die
	// root counters.
	HitRoot
)

func (h HitLevel) String() string {
	switch h {
	case HitVersions:
		return "versions-hit"
	case HitL0:
		return "level0-hit"
	case HitL1:
		return "level1-hit"
	case HitL2:
		return "level2-hit"
	case HitRoot:
		return "root-access"
	default:
		return fmt.Sprintf("HitLevel(%d)", int(h))
	}
}

// IntegrityError reports a failed MAC verification — either real tampering
// (a test flipping DRAM bits) or a replay.
type IntegrityError struct {
	Addr dram.Addr
	Kind itree.NodeKind
	What string
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mee: integrity violation on %s line %#x: %s", e.Kind, e.Addr, e.What)
}

// Config sets the MEE cache organization. The defaults reproduce the
// organization the paper reverse-engineers.
type Config struct {
	// CacheSets/CacheWays: 128 sets (64 odd for versions, 64 even for
	// tags/levels) of 8 ways — the organization §4 reverse-engineers. The
	// set count must be even with a power-of-two half, so a line's set
	// within its half is its line address masked.
	CacheSets int
	CacheWays int
	// Policy is the replacement policy. The paper assumes "approximate
	// LRU"; we default to true LRU, under which Algorithm 1 measures the
	// paper's 8 ways. In the 9-line/8-way musical chairs of Algorithm 2,
	// true LRU evicts the spy's monitor line on a single forward pass as
	// reliably as on §5.3's forward+backward pass (figures -fig E prints
	// success 1 for both), so this default does not show the failure mode
	// the two-phase design exists to fix (DESIGN.md §5). Tree-PLRU is
	// available for ablations; being only path-wise recency-aware, it can
	// lock into cycles that never evict the monitor, with one pass or two.
	Policy cache.Policy

	// RandomEvictProb, when positive, evicts one random MEE-cache line per
	// protected access with this probability — a noise-injection mitigation
	// evaluated in the extension experiments (§5.5 discussion).
	RandomEvictProb float64
}

// The timing model in cycles, calibrated to Figure 5: ~480 cycles for a
// versions hit, ~+270 per additional tree level fetched.
const (
	// PipelineBase is the mean cost of the MEE pipeline itself —
	// decryption, MAC checks, queueing inside the unit — added to every
	// protected access on top of the DRAM fetches.
	PipelineBase = 230
	// LevelCheck is the extra verification cost per tree level fetched.
	LevelCheck = 20
	// WriteExtra is added to protected writes (counter update, re-MAC).
	WriteExtra = 60
	// PortOccupancy is how long one access occupies the engine's request
	// port. The MEE pipelines DRAM fetches of concurrent walks (those
	// contend at the banks instead), so only the crypto/check stage
	// serializes.
	PortOccupancy = 120
	// JitterSigma is gaussian jitter on the pipeline cost.
	JitterSigma = 8
)

// DefaultConfig returns the reverse-engineered organization (64 KB, 8-way,
// 128 sets — Section 4) under true LRU.
func DefaultConfig() Config {
	return Config{
		CacheSets: 128,
		CacheWays: 8,
		Policy:    cache.NewLRU(),
	}
}

// Stats counts MEE events.
type Stats struct {
	Reads      uint64
	Writes     uint64
	HitsAt     [5]uint64 // indexed by HitLevel
	Writebacks uint64
	Violations uint64
	StallCyc   sim.Cycles
}

// Engine is the MEE instance for one memory controller.
type Engine struct {
	cfg   Config
	geom  itree.Geometry
	crypt *itree.Crypto
	mem   *dram.DRAM
	cache *cache.Cache
	// halfMask is CacheSets/2 - 1: a line's set within its odd or even half
	// is its line address masked by it.
	halfMask uint64

	// bufs holds the current content of every tree line resident in the
	// MEE cache (DRAM may be stale for dirty lines). It is one contiguous
	// value slab indexed [set*ways+way], way for way with the cache's
	// lines, which alone record what each slot holds and whether it is
	// dirty: the per-walk lookup is an array index, an empty way's slot
	// holds the zero buffer, and Fork is a single slab copy.
	bufs []nodeBuf
	// wbq holds the dirty lines that have left the MEE cache and are not
	// written back yet, each with its buffer. ReadData, WriteData and
	// FlushCache drain it once their own walk is done, and a load that
	// misses the cache takes its line back from it before reading DRAM, so
	// a line's newest image is always in exactly one place: its slot, the
	// queue, or DRAM. It is empty between operations.
	wbq []queuedLine
	// dataMemo and nodeMemo remember, per line, what the engine last derived
	// from the line's DRAM bytes: a data line's PD_Tag and plaintext at a
	// version, and a counter line's decoded image and the parent counter it
	// verifies under. Each entry holds the write generation of the line's
	// page when the bytes were read or written (dram.WriteGen), and is
	// trusted only while that generation is unchanged: then the bytes are
	// too, so a read replays the entry instead of copying, decoding and
	// re-verifying them. Any DRAM write to the page, a tamper included,
	// bumps the generation, and the next read goes back to the bytes, so
	// tamper detection is unaffected (FuzzTamperDetected). The memos are
	// host-side caches only — they never affect simulated timing or state,
	// are excluded from snapshots, and are dropped on Fork (each fork
	// rebuilds its own; sharing would race across goroutines).
	dataMemo map[dram.Addr]*dataMemoEntry
	nodeMemo map[dram.Addr]nodeMemoEntry
	// root holds the on-die SRAM root counters — always trusted, always
	// current.
	root []uint64
	// initialized tracks tree lines whose DRAM image has been materialized
	// with valid MACs (lazy boot-time initialization): one bit per PRM line.
	initialized []uint64

	port  sim.Resource
	stats Stats

	// Observability (nil when disabled): the requester-latency histogram
	// and the hit-level counter track. Stats fields are surfaced as
	// deferred samples instead (see Observe).
	hReadLat  *obs.Histogram
	tr        *obs.Tracer
	nHitLevel obs.NameID
}

// nodeBuf is the decoded content of a cached tree line, and nothing else.
// Which line a slot holds is its way's: the line's address is the way's tag
// times the line size, its kind the geometry's class of that address, the
// slot is resident exactly when the way is valid, and the line is dirty
// exactly when the way's dirty bit is set.
type nodeBuf struct {
	counter itree.CounterLine // for version/level lines
	tags    itree.TagLine     // for tag lines
}

// queuedLine is a dirty line in the write-back queue: its address and the
// buffer it left its slot with.
type queuedLine struct {
	addr dram.Addr
	nb   nodeBuf
}

// dataMemoEntry is the memoized crypto result for one data line: the
// PD_Tag and plaintext of its ciphertext at the given version, as of page
// write generation gen.
type dataMemoEntry struct {
	version uint64
	gen     uint64
	mac     uint64
	plain   [itree.LineSize]byte
}

// nodeMemoEntry is one counter line's DRAM image as of page write
// generation gen, decoded. Its embedded MAC is the line's NodeMAC under
// parent counter pc: the line was verified under pc, or written with a MAC
// made under it.
type nodeMemoEntry struct {
	gen  uint64
	pc   uint64
	line itree.CounterLine
}

// nodeMAC computes (or replays) the embedded MAC of a counter line. Both
// verification and MAC production go through here, so a line written back
// and later reloaded verifies from the memo.
func (e *Engine) nodeMAC(addr dram.Addr, pc uint64, counters [itree.CountersPerLine]uint64) uint64 {
	if m, ok := e.nodeMemo[addr]; ok && m.pc == pc && m.line.Counters == counters {
		return m.line.MAC
	}
	return e.crypt.NodeMAC(addr, pc, counters)
}

// putNodeMemo records m, a counter line's image valid under m.pc, as the
// line's memo.
func (e *Engine) putNodeMemo(addr dram.Addr, m nodeMemoEntry) {
	if e.nodeMemo == nil {
		e.nodeMemo = make(map[dram.Addr]nodeMemoEntry)
	}
	e.nodeMemo[addr] = m
}

// putDataMemo records the crypto result for a data line, reusing the
// existing entry's storage when present.
func (e *Engine) putDataMemo(addr dram.Addr, version, gen, mac uint64, plain [itree.LineSize]byte) {
	m := e.dataMemo[addr]
	if m == nil {
		if e.dataMemo == nil {
			e.dataMemo = make(map[dram.Addr]*dataMemoEntry)
		}
		m = &dataMemoEntry{}
		e.dataMemo[addr] = m
	}
	*m = dataMemoEntry{version: version, gen: gen, mac: mac, plain: plain}
}

// checkGeometry is the one geometry rule New and ReadEngine share: an
// even set count whose half is a power of two, for the masked odd/even set
// split. Ways are the cache package's to check.
func checkGeometry(cfg Config) error {
	half := cfg.CacheSets / 2
	if cfg.CacheSets%2 != 0 || half <= 0 || half&(half-1) != 0 {
		return fmt.Errorf("mee: cache sets must be even with a power-of-two half (odd/even split), got %d", cfg.CacheSets)
	}
	return nil
}

// New builds an MEE over the given geometry, crypto, and DRAM. It panics on
// a geometry checkGeometry rejects.
func New(cfg Config, geom itree.Geometry, crypt *itree.Crypto, mem *dram.DRAM) *Engine {
	if err := checkGeometry(cfg); err != nil {
		panic(err.Error())
	}
	return &Engine{
		cfg:         cfg,
		geom:        geom,
		halfMask:    uint64(cfg.CacheSets/2 - 1),
		crypt:       crypt,
		mem:         mem,
		cache:       cache.New("mee", cfg.CacheSets, cfg.CacheWays, cfg.Policy),
		bufs:        make([]nodeBuf, cfg.CacheSets*cfg.CacheWays),
		root:        make([]uint64, geom.RootCounters),
		initialized: make([]uint64, (geom.PRMSize/itree.LineSize+63)/64),
	}
}

// bufIdx maps a cache location to its slot in the dense buffer array.
func (e *Engine) bufIdx(set, way int) int { return set*e.cfg.CacheWays + way }

// initBit maps a PRM line address to its word and mask in the initialized
// bitset.
func (e *Engine) initBit(addr dram.Addr) (word int, mask uint64) {
	line := uint64(addr-e.geom.PRMBase) / itree.LineSize
	return int(line / 64), 1 << (line % 64)
}

// Fork returns an independent copy of the engine for platform forking:
// cache contents and replacement state, resident node buffers, root
// counters, init bitmap, port, and statistics all carry over. The copy gets
// its own crypto scratch (same keys); mem rebinds it to the fork's DRAM
// view; rng rebinds randomized replacement policies and must be the forked
// engine's stream (nil keeps the source policy's stream — only valid for
// frozen intermediate copies that never run). Observability is not carried
// over — attach via Observe if needed.
//
// The MEE cache's set blocks are shared with e copy-on-write (see
// cache.Clone), so Fork only reads e and forks of one frozen engine may be
// taken concurrently; e itself must not run on afterwards (use Snapshot
// for an engine that keeps running).
func (e *Engine) Fork(mem *dram.DRAM, rng *rand.Rand) *Engine {
	return e.fork(mem, e.cache.Clone(rng))
}

// Snapshot returns a frozen copy of the engine to Fork from. e may keep
// running: its cache moves to a new generation (see cache.Snapshot).
func (e *Engine) Snapshot() *Engine { return e.fork(nil, e.cache.Snapshot()) }

// fork copies e around c, its cache's copy.
func (e *Engine) fork(mem *dram.DRAM, c *cache.Cache) *Engine {
	n := &Engine{
		cfg:         e.cfg,
		geom:        e.geom,
		halfMask:    e.halfMask,
		crypt:       e.crypt.Clone(),
		mem:         mem,
		cache:       c,
		bufs:        make([]nodeBuf, len(e.bufs)),
		root:        make([]uint64, len(e.root)),
		initialized: make([]uint64, len(e.initialized)),
		port:        e.port,
		stats:       e.stats,
	}
	copy(n.bufs, e.bufs) // value slab: one memcpy clones every resident line
	copy(n.root, e.root)
	copy(n.initialized, e.initialized)
	return n
}

// Cache exposes the MEE cache for statistics and white-box tests.
func (e *Engine) Cache() *cache.Cache { return e.cache }

// Observe attaches an observer. The accumulated Stats (reads, writes,
// per-level hits, writebacks, violations, stall cycles) become deferred
// samples evaluated at snapshot time, so the walk hot path gains only one
// histogram observation per access.
// With a tracer attached, every data access also emits a sample on the
// "mee.hit_level" counter track — the per-access signal Figure 5 histograms.
// Safe to call with nil.
func (e *Engine) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	o.Sample("mee.reads", obs.Semantic, func() uint64 { return e.stats.Reads })
	o.Sample("mee.writes", obs.Semantic, func() uint64 { return e.stats.Writes })
	o.Sample("mee.writebacks", obs.Semantic, func() uint64 { return e.stats.Writebacks })
	o.Sample("mee.violations", obs.Semantic, func() uint64 { return e.stats.Violations })
	o.Sample("mee.stall_cycles", obs.Semantic, func() uint64 { return uint64(e.stats.StallCyc) })
	for h := HitVersions; h <= HitRoot; h++ {
		h := h
		o.Sample("mee.hits."+h.String(), obs.Semantic, func() uint64 { return e.stats.HitsAt[h] })
	}
	e.hReadLat = o.Histogram("mee.read_latency")
	e.cache.Observe(o, "mee")
	e.tr = o.Tracer()
	e.nHitLevel = e.tr.Name("mee.hit_level")
}

// Geometry returns the integrity-tree geometry.
func (e *Engine) Geometry() *itree.Geometry { return &e.geom }

// Stats returns a copy of the accumulated statistics.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the statistics.
func (e *Engine) ResetStats() { e.stats = Stats{}; e.cache.ResetStats() }

// CacheSetFor reports the MEE cache set a tree line maps to. Versions lines
// live in odd sets; PD_Tag lines and the L0..L2 counter lines live in even
// sets (§4.1 of the paper reverse-engineers the versions/PD_Tag split; the
// upper levels' placement is not published). Keeping the upper levels out of
// the versions sets is required for Algorithm 1 to discover exactly 8 ways,
// as the paper does: if L0 lines shared versions sets, every candidate pass
// would carry one extra odd-set fill and cap index sets at 7. The residual
// "versions data eviction caused by other levels" the paper mentions shows
// up in our model through PD_Tag pressure and PLRU dynamics instead.
//
// The walk knows each line's kind and calls oddSet or evenSet directly.
func (e *Engine) CacheSetFor(addr dram.Addr) int {
	if e.geom.Classify(addr) == itree.KindVersion {
		return e.oddSet(addr)
	}
	return e.evenSet(addr)
}

// oddSet is the set of a versions line.
func (e *Engine) oddSet(addr dram.Addr) int { return e.evenSet(addr) + 1 }

// evenSet is the set of a PD_Tag or L0..L2 line.
func (e *Engine) evenSet(addr dram.Addr) int {
	return int(2 * (uint64(addr) / itree.LineSize & e.halfMask))
}

func (e *Engine) cacheTag(addr dram.Addr) cache.Tag {
	return cache.Tag(uint64(addr) / itree.LineSize)
}

// tagAddr is the address of the tree line a cache tag names.
func tagAddr(t cache.Tag) dram.Addr { return dram.Addr(uint64(t) * itree.LineSize) }

// walker accumulates latency for one walk: a requester's protected access,
// or one write-back of a drain, whose latency no requester waits for.
type walker struct {
	e   *Engine
	rng *rand.Rand
	now sim.Cycles // start time of the walk
	lat sim.Cycles // accumulated serial latency
	hit HitLevel   // deepest level that hit (set once, by the first hit)
	set bool
}

func (w *walker) dram(addr dram.Addr) {
	w.lat += w.e.mem.Access(w.now+w.lat, w.rng, addr, false)
}

// posted performs a DRAM access that occupies the bank but does not delay
// the requester (posted writes / background writebacks).
func (w *walker) posted(addr dram.Addr, write bool) {
	_ = w.e.mem.Access(w.now+w.lat, w.rng, addr, write)
}

func (w *walker) markHit(h HitLevel) {
	if w.set {
		return
	}
	w.hit = h
	w.set = true
}

// ReadData performs a protected-region read of the 64-byte line containing
// addr, starting at cycle now. It returns the decrypted line, the total
// latency the requesting core observes (including MEE port contention), and
// the hit level for instrumentation.
func (e *Engine) ReadData(now sim.Cycles, rng *rand.Rand, addr dram.Addr) ([itree.LineSize]byte, sim.Cycles, HitLevel, error) {
	addr &^= itree.LineSize - 1
	if !e.geom.ContainsData(addr) {
		panic(fmt.Sprintf("mee: ReadData at %#x outside protected region", addr))
	}
	e.stats.Reads++
	w := &walker{e: e, rng: rng, now: now}
	e.maybeRandomEvict(rng)
	plain, err := e.read(w, addr)
	if err := e.finish(w, PipelineBase, err); err != nil {
		return [itree.LineSize]byte{}, w.lat, w.hit, err
	}
	e.hReadLat.Observe(int64(w.lat))
	return plain, w.lat, w.hit, nil
}

// finish ends a requester's access once its walk is done, err being the
// walk's. It drains the write-back queue from where the walk ended. Unless
// the walk failed, it then adds to the walk's latency the MEE pipeline cost,
// pipeline cycles on average, and the port stall (the crypto stage only
// serializes; DRAM fetches of concurrent walks overlap and contend at the
// banks), and counts the access at its hit level.
func (e *Engine) finish(w *walker, pipeline float64, err error) error {
	if len(e.wbq) > 0 {
		e.drain(w.now+w.lat, w.rng)
	}
	if err != nil {
		return err
	}
	w.lat += sim.Gauss(w.rng, pipeline, JitterSigma)
	stall := e.port.Acquire(w.now, PortOccupancy)
	e.stats.StallCyc += stall
	e.stats.HitsAt[w.hit]++
	if e.tr != nil {
		e.tr.Count(e.nHitLevel, int64(w.now), int64(w.hit))
	}
	w.lat += stall
	return nil
}

// read is ReadData's walk: it fetches, verifies and decrypts the data line
// at addr.
func (e *Engine) read(w *walker, addr dram.Addr) ([itree.LineSize]byte, error) {
	// Data ciphertext fetch from DRAM (the MEE never caches data lines). A
	// memo taken at the page's current write generation stands in for the
	// ciphertext, which is then unchanged.
	w.dram(addr)
	gen := e.mem.WriteGen(addr)
	m := e.dataMemo[addr]
	var ct [itree.LineSize]byte
	if m == nil || m.gen != gen {
		m, ct = nil, e.mem.ReadLine(addr)
	}

	// Versions walk: stops at the first MEE-cache hit.
	vi, err := e.loadVersions(w, addr)
	if err != nil {
		return [itree.LineSize]byte{}, err
	}
	slot := e.geom.VersionSlot(addr)
	version := e.bufs[vi].counter.Counters[slot]

	// PD_Tag check. The tag fetch overlaps the data fetch in the real
	// pipeline, so it adds no serial latency, but it does occupy a DRAM
	// bank on a miss and consumes even-set cache capacity.
	ti := e.loadTags(w, addr)
	if m != nil && m.version != version {
		m, ct = nil, e.mem.ReadLine(addr) // a memo of another version
	}
	var want uint64
	if m != nil {
		want = m.mac
	} else {
		want = e.crypt.DataMAC(addr, version, ct)
	}
	if e.bufs[ti].tags.Tags[slot] != want {
		e.stats.Violations++
		return [itree.LineSize]byte{}, &IntegrityError{Addr: addr, Kind: itree.KindData, What: "PD_Tag mismatch"}
	}
	if m != nil {
		return m.plain, nil
	}
	plain := e.crypt.DecryptLine(addr, version, ct)
	e.putDataMemo(addr, version, gen, want, plain)
	return plain, nil
}

// WriteData performs a protected-region write of the full line at addr:
// version increment, re-encryption, PD_Tag recompute. The new ciphertext
// write to DRAM is posted.
func (e *Engine) WriteData(now sim.Cycles, rng *rand.Rand, addr dram.Addr, plain [itree.LineSize]byte) (sim.Cycles, HitLevel, error) {
	addr &^= itree.LineSize - 1
	if !e.geom.ContainsData(addr) {
		panic(fmt.Sprintf("mee: WriteData at %#x outside protected region", addr))
	}
	e.stats.Writes++
	w := &walker{e: e, rng: rng, now: now}
	e.maybeRandomEvict(rng)
	err := e.finish(w, PipelineBase+WriteExtra, e.write(w, addr, plain))
	return w.lat, w.hit, err
}

// write is WriteData's walk: it bumps the line's version, writes its new
// ciphertext and records its new PD_Tag.
func (e *Engine) write(w *walker, addr dram.Addr, plain [itree.LineSize]byte) error {
	vi, err := e.loadVersions(w, addr)
	if err != nil {
		return err
	}
	slot := e.geom.VersionSlot(addr)
	vline := &e.bufs[vi]
	if vline.counter.Counters[slot] >= itree.CounterMax {
		return fmt.Errorf("mee: version counter overflow at %#x (re-key required)", addr)
	}
	vline.counter.Counters[slot]++
	e.markDirty(vi)
	version := vline.counter.Counters[slot]

	ct := e.crypt.EncryptLine(addr, version, plain)
	e.mem.WriteLine(addr, ct)
	gen := e.mem.WriteGen(addr)
	w.posted(addr, true)

	ti := e.loadTags(w, addr)
	mac := e.crypt.DataMAC(addr, version, ct)
	e.bufs[ti].tags.Tags[slot] = mac
	e.markDirty(ti)
	e.putDataMemo(addr, version, gen, mac, plain)
	return nil
}

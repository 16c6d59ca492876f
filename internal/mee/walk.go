package mee

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/sim"
)

// loadVersions returns the buffer slot of the (cached or freshly verified)
// versions line covering dataAddr. On a cache hit the walk terminates here
// — the line was verified when it was brought in, which is the property the
// whole covert channel rests on. On a miss the line is fetched from DRAM and
// verified against its covering L0 counter, recursing up the tree.
func (e *Engine) loadVersions(w *walker, dataAddr dram.Addr) (int, error) {
	vaddr := e.geom.VersionLineAddr(dataAddr)
	set := e.oddSet(vaddr)
	if way, hit := e.cache.LookupWay(set, e.cacheTag(vaddr)); hit {
		w.markHit(HitVersions)
		return e.bufIdx(set, way), nil
	}
	// Miss: fetch the line from DRAM.
	w.dram(vaddr, false)
	m, memo := e.readCounterLine(vaddr)

	// Obtain the covering L0 counter (may recurse further up).
	vi := e.geom.VersionLineIndex(dataAddr)
	l0, slot := e.geom.ParentOfVersion(vi)
	pc, err := e.loadLevelCounter(w, 0, l0, slot)
	if err != nil {
		return 0, err
	}
	if !e.verifyCounterLine(vaddr, m, memo, pc) {
		e.stats.Violations++
		return 0, &IntegrityError{Addr: vaddr, Kind: itree.KindVersion, What: "embedded MAC mismatch"}
	}
	w.check()
	return e.install(w, vaddr, set, nodeBuf{counter: m.line}), nil
}

// readCounterLine returns the DRAM image of the counter line at addr,
// materializing its boot image first, with the write generation its page
// had when read. The generation is read before the walk recurses to the
// parent, whose write-backs may write the page. memo reports that the image
// is the line's memo, taken at that generation: the bytes are unchanged
// since, so they are not read and decoded again.
func (e *Engine) readCounterLine(addr dram.Addr) (m nodeMemoEntry, memo bool) {
	e.ensureInit(addr)
	gen := e.mem.WriteGen(addr)
	if m, ok := e.nodeMemo[addr]; ok && m.gen == gen {
		return m, true
	}
	return nodeMemoEntry{gen: gen, line: itree.DecodeCounterLine(e.mem.ReadLine(addr))}, false
}

// verifyCounterLine checks the counter line image m that readCounterLine
// returned against parent counter pc, and memoizes an image that verifies.
// A memo verified under pc verifies again without a MAC.
func (e *Engine) verifyCounterLine(addr dram.Addr, m nodeMemoEntry, memo bool, pc uint64) bool {
	if memo && m.pc == pc {
		return true
	}
	if m.line.MAC != e.nodeMAC(addr, pc, m.line.Counters) {
		return false
	}
	m.pc = pc
	e.putNodeMemo(addr, m)
	return true
}

// loadLevelCounter returns the current value of counter `slot` in the
// level-`level` line with index idx, fetching and verifying the line if it
// is not in the MEE cache. It records the walk's terminal hit level.
func (e *Engine) loadLevelCounter(w *walker, level int, idx uint64, slot int) (uint64, error) {
	addr := e.geom.LevelLineAddr(level, idx)
	set := e.evenSet(addr)
	if way, hit := e.cache.LookupWay(set, e.cacheTag(addr)); hit {
		w.markHit(HitL0 + HitLevel(level))
		return e.bufs[e.bufIdx(set, way)].counter.Counters[slot], nil
	}
	w.dram(addr, false)
	m, memo := e.readCounterLine(addr)

	pIdx, pSlot, isRoot := e.geom.ParentOfLevel(level, idx)
	var pc uint64
	if isRoot {
		w.markHit(HitRoot)
		pc = e.root[pIdx]
	} else {
		var err error
		pc, err = e.loadLevelCounter(w, level+1, pIdx, pSlot)
		if err != nil {
			return 0, err
		}
	}
	if !e.verifyCounterLine(addr, m, memo, pc) {
		e.stats.Violations++
		return 0, &IntegrityError{Addr: addr, Kind: itree.NodeKind(int(itree.KindLevel0) + level), What: "embedded MAC mismatch"}
	}
	w.check()
	e.install(w, addr, set, nodeBuf{counter: m.line})
	return m.line.Counters[slot], nil
}

// loadTags returns the buffer slot of the PD_Tag line covering dataAddr.
// Tag fetches overlap the data fetch in the real pipeline, so a miss
// occupies a DRAM bank but adds no serial latency and does not define the
// walk's hit level.
func (e *Engine) loadTags(w *walker, dataAddr dram.Addr) int {
	taddr := e.geom.TagLineAddr(dataAddr)
	set := e.evenSet(taddr)
	if way, hit := e.cache.LookupWay(set, e.cacheTag(taddr)); hit {
		return e.bufIdx(set, way)
	}
	w.posted(taddr, false)
	e.ensureInit(taddr)
	return e.install(w, taddr, set, nodeBuf{tags: itree.DecodeTagLine(e.mem.ReadLine(taddr))})
}

// check charges the per-level verification cost to the requester.
func (w *walker) check() {
	if w.postedMode {
		return
	}
	w.lat += LevelCheck
}

// install fills a verified line into the MEE cache, handling the eviction
// (and possible dirty writeback) of the displaced line, and returns the
// slot's buffer index. The new line is written into its slot before the
// victim's writeback runs: the writeback may recurse into further loads
// that read or evict other slots and must see a consistent slab.
func (e *Engine) install(w *walker, addr dram.Addr, set int, nb nodeBuf) int {
	e.countInstall()
	way, evicted := e.cache.InsertWay(set, e.cacheTag(addr), nb.dirty)
	idx := e.bufIdx(set, way)
	// The victim's buffer lives in the slot we fill. Only its writeback
	// reads it, so it is copied out only when dirty.
	var ev nodeBuf
	if evicted.Valid && e.bufs[idx].dirty {
		ev = e.bufs[idx]
	}
	e.bufs[idx] = nb
	if evicted.Valid {
		if ev.dirty {
			e.writeback(w, tagAddr(evicted.Tag), &ev)
		}
		e.countDrop()
	}
	return idx
}

// writeback flushes a dirty tree line to DRAM. Version and level lines must
// first increment their covering counter (freshness) and re-MAC; tag lines
// are self-authenticating and are written out as-is. All DRAM traffic here
// is posted: it occupies banks but does not delay the requester.
func (e *Engine) writeback(w *walker, addr dram.Addr, nb *nodeBuf) {
	e.stats.Writebacks++
	var pc uint64
	switch kind := e.geom.Classify(addr); kind {
	case itree.KindTag:
		raw := nb.tags.Encode()
		e.mem.WriteLine(addr, raw)
		w.posted(addr, true)
		return
	case itree.KindVersion:
		vi := uint64(addr-e.geom.VersBase) / itree.LineSize
		l0, slot := e.geom.ParentOfVersion(vi)
		pc = e.bumpLevelCounter(w, 0, l0, slot)
	case itree.KindLevel0, itree.KindLevel1, itree.KindLevel2:
		level := int(kind - itree.KindLevel0)
		idx := uint64(addr-e.geom.LevelBase[level]) / itree.LineSize
		pIdx, pSlot, isRoot := e.geom.ParentOfLevel(level, idx)
		if isRoot {
			e.root[pIdx]++
			pc = e.root[pIdx]
		} else {
			pc = e.bumpLevelCounter(w, level+1, pIdx, pSlot)
		}
	default:
		panic(fmt.Sprintf("mee: writeback of unexpected node kind %v", kind))
	}
	nb.counter.MAC = e.nodeMAC(addr, pc, nb.counter.Counters)
	e.writeCounterLine(addr, pc, nb.counter)
	w.posted(addr, true)
}

// writeCounterLine writes counter line cl, whose MAC was made under parent
// counter pc, to DRAM and memoizes it at its page's new write generation.
func (e *Engine) writeCounterLine(addr dram.Addr, pc uint64, cl itree.CounterLine) {
	e.mem.WriteLine(addr, cl.Encode())
	e.putNodeMemo(addr, nodeMemoEntry{gen: e.mem.WriteGen(addr), pc: pc, line: cl})
}

// markDirty flags the line in buffer slot idx dirty, in its buffer and in
// the MEE cache, whose dirty bit its write-back counters read.
func (e *Engine) markDirty(idx int) {
	e.bufs[idx].dirty = true
	e.cache.MarkDirtyWay(idx/e.cfg.CacheWays, idx%e.cfg.CacheWays)
}

// bumpLevelCounter loads (posted) the covering counter line, increments the
// child's slot, marks it dirty, and returns the new counter value.
func (e *Engine) bumpLevelCounter(w *walker, level int, idx uint64, slot int) uint64 {
	prevPosted := w.postedMode
	w.postedMode = true
	pc, err := e.loadLevelCounter(w, level, idx, slot)
	w.postedMode = prevPosted
	if err != nil {
		// A writeback that trips an integrity violation means the tree
		// itself is corrupt; surface loudly (tamper tests never write).
		panic(fmt.Sprintf("mee: integrity violation during writeback: %v", err))
	}
	if pc >= itree.CounterMax {
		panic(fmt.Sprintf("mee: level %d counter overflow (re-key required)", level))
	}
	addr := e.geom.LevelLineAddr(level, idx)
	set := e.evenSet(addr)
	way, ok := e.cache.WayOf(set, e.cacheTag(addr))
	if !ok {
		panic(fmt.Sprintf("mee: counter line %#x vanished during writeback", addr))
	}
	bi := e.bufIdx(set, way)
	e.bufs[bi].counter.Counters[slot] = pc + 1
	e.markDirty(bi)
	return pc + 1
}

// residentBuf returns the node buffer currently holding addr, or nil when
// the line is not resident. It does not touch replacement state or stats.
func (e *Engine) residentBuf(addr dram.Addr) *nodeBuf {
	set := e.CacheSetFor(addr)
	if way, ok := e.cache.WayOf(set, e.cacheTag(addr)); ok {
		return &e.bufs[e.bufIdx(set, way)]
	}
	return nil
}

// residents returns the addresses of the lines resident in the MEE cache in
// ascending order, so that what a caller does with them is independent of
// storage layout (the map the buffers once were was sorted too). With
// dirty set, it returns only the lines whose buffer is dirty.
func (e *Engine) residents(dirty bool) []dram.Addr {
	addrs := make([]dram.Addr, 0, e.cache.ValidCount())
	e.cache.Lines(func(set, way int, l cache.Line) {
		if !dirty || e.bufs[e.bufIdx(set, way)].dirty {
			addrs = append(addrs, tagAddr(l.Tag))
		}
	})
	slices.Sort(addrs)
	return addrs
}

// maybeRandomEvict implements the noise-injection mitigation: with
// probability RandomEvictProb, one randomly chosen resident tree line is
// evicted (written back if dirty) before the access proceeds.
func (e *Engine) maybeRandomEvict(w *walker) {
	p := e.cfg.RandomEvictProb
	if p <= 0 || e.cache.ValidCount() == 0 || w.rng.Float64() >= p {
		return
	}
	addrs := e.residents(false)
	victim := addrs[w.rng.IntN(len(addrs))]
	set := e.CacheSetFor(victim)
	way, _ := e.cache.InvalidateWay(set, e.cacheTag(victim))
	idx := e.bufIdx(set, way)
	nb := e.bufs[idx] // copy out before clearing; the writeback may recurse
	e.bufs[idx] = nodeBuf{}
	if nb.dirty {
		prev := w.postedMode
		w.postedMode = true
		e.writeback(w, victim, &nb)
		w.postedMode = prev
	}
	e.countDrop()
}

// ensureInit materializes the boot-time image of a tree line in DRAM:
// all-zero counters with a valid MAC (covering counters are provably zero
// before a line's first writeback), or for tag lines the MACs of the
// all-zero ciphertext at version zero.
func (e *Engine) ensureInit(addr dram.Addr) {
	word, mask := e.initBit(addr)
	if e.initialized[word]&mask != 0 {
		return
	}
	e.initialized[word] |= mask
	kind := e.geom.Classify(addr)
	switch kind {
	case itree.KindVersion, itree.KindLevel0, itree.KindLevel1, itree.KindLevel2:
		var cl itree.CounterLine
		cl.MAC = e.nodeMAC(addr, 0, cl.Counters)
		e.writeCounterLine(addr, 0, cl)
	case itree.KindTag:
		var tl itree.TagLine
		vi := uint64(addr-e.geom.TagBase) / itree.LineSize
		var zero [itree.LineSize]byte
		for i := 0; i < itree.CountersPerLine; i++ {
			dataAddr := e.geom.DataBase + dram.Addr(vi*itree.DataPerVersionLine+uint64(i)*itree.LineSize)
			tl.Tags[i] = e.crypt.DataMAC(dataAddr, 0, zero)
		}
		raw := tl.Encode()
		e.mem.WriteLine(addr, raw)
	default:
		panic(fmt.Sprintf("mee: ensureInit on non-tree address %#x (%v)", addr, kind))
	}
}

// FlushCache writes back every dirty line and empties the MEE cache —
// a simulation-only helper used to start experiments from a cold MEE state
// (no architectural equivalent exists; clflush cannot reach the MEE cache,
// per §3 of the paper).
func (e *Engine) FlushCache(now sim.Cycles, rng *rand.Rand) {
	w := &walker{e: e, rng: rng, now: now, postedMode: true}
	// Writing back a dirty version/level line dirties its parent, so sweep
	// in ascending address order (parents live above children in the PRM)
	// until nothing dirty remains.
	for addrs := e.residents(true); len(addrs) > 0; addrs = e.residents(true) {
		for _, addr := range addrs {
			nb := e.residentBuf(addr)
			if nb == nil || !nb.dirty {
				continue // already handled by a cascaded eviction
			}
			e.writeback(w, addr, nb)
			nb.dirty = false
		}
	}
	for range e.cache.ValidCount() {
		e.countDrop()
	}
	e.cache.FlushAll()
	clear(e.bufs)
}

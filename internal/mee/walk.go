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
// whole covert channel rests on. A line taken back from the write-back queue
// ends the walk the same way. Otherwise the line is fetched from DRAM and
// verified against its covering L0 counter, recursing up the tree.
func (e *Engine) loadVersions(w *walker, dataAddr dram.Addr) (int, error) {
	vaddr := e.geom.VersionLineAddr(dataAddr)
	set := e.oddSet(vaddr)
	if way, hit := e.cache.LookupWay(set, e.cacheTag(vaddr)); hit {
		w.markHit(HitVersions)
		return e.bufIdx(set, way), nil
	}
	if i, ok := e.takeBack(vaddr, set); ok {
		w.markHit(HitVersions)
		return i, nil
	}
	// Miss: fetch the line from DRAM.
	w.dram(vaddr)
	m, memo := e.readCounterLine(vaddr)

	// Obtain the covering L0 counter (may recurse further up).
	l0, slot := e.geom.ParentOfVersion(e.geom.VersionLineIndex(dataAddr))
	pi, err := e.loadLevel(w, 0, l0)
	if err != nil {
		return 0, err
	}
	if !e.verifyCounterLine(vaddr, m, memo, e.bufs[pi].counter.Counters[slot]) {
		e.stats.Violations++
		return 0, &IntegrityError{Addr: vaddr, Kind: itree.KindVersion, What: "embedded MAC mismatch"}
	}
	w.check()
	return e.install(vaddr, set, nodeBuf{counter: m.line}, false), nil
}

// readCounterLine returns the DRAM image of the counter line at addr,
// materializing its boot image first, with the write generation its page
// had when read. memo reports that the image is the line's memo, taken at
// that generation: the bytes are unchanged since, so they are not read and
// decoded again.
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

// loadLevel returns the buffer slot of the level-`level` line with index
// idx, taking it back from the write-back queue or fetching and verifying
// it if it is not in the MEE cache. It records the walk's terminal hit
// level.
func (e *Engine) loadLevel(w *walker, level int, idx uint64) (int, error) {
	addr := e.geom.LevelLineAddr(level, idx)
	set := e.evenSet(addr)
	if way, hit := e.cache.LookupWay(set, e.cacheTag(addr)); hit {
		w.markHit(HitL0 + HitLevel(level))
		return e.bufIdx(set, way), nil
	}
	if i, ok := e.takeBack(addr, set); ok {
		w.markHit(HitL0 + HitLevel(level))
		return i, nil
	}
	w.dram(addr)
	m, memo := e.readCounterLine(addr)

	pIdx, pSlot, isRoot := e.geom.ParentOfLevel(level, idx)
	var pc uint64
	if isRoot {
		w.markHit(HitRoot)
		pc = e.root[pIdx]
	} else {
		pi, err := e.loadLevel(w, level+1, pIdx)
		if err != nil {
			return 0, err
		}
		pc = e.bufs[pi].counter.Counters[pSlot]
	}
	if !e.verifyCounterLine(addr, m, memo, pc) {
		e.stats.Violations++
		return 0, &IntegrityError{Addr: addr, Kind: itree.NodeKind(int(itree.KindLevel0) + level), What: "embedded MAC mismatch"}
	}
	w.check()
	return e.install(addr, set, nodeBuf{counter: m.line}, false), nil
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
	if i, ok := e.takeBack(taddr, set); ok {
		return i
	}
	w.posted(taddr, false)
	e.ensureInit(taddr)
	return e.install(taddr, set, nodeBuf{tags: itree.DecodeTagLine(e.mem.ReadLine(taddr))}, false)
}

// check charges the per-level verification cost to the walk.
func (w *walker) check() { w.lat += LevelCheck }

// install fills a line into the MEE cache, dirty or clean, and returns the
// slot's buffer index. The displaced line, if dirty, joins the write-back
// queue with its buffer; nothing is written back here.
func (e *Engine) install(addr dram.Addr, set int, nb nodeBuf, dirty bool) int {
	way, evicted := e.cache.InsertWay(set, e.cacheTag(addr), dirty)
	idx := e.bufIdx(set, way)
	if evicted.Dirty {
		e.wbq = append(e.wbq, queuedLine{addr: tagAddr(evicted.Tag), nb: e.bufs[idx]})
	}
	e.bufs[idx] = nb
	return idx
}

// takeBack reinstalls the line at addr, dirty, if it waits in the
// write-back queue, and returns its slot; ok is false when it does not.
// The queue is searched only after a cache miss.
func (e *Engine) takeBack(addr dram.Addr, set int) (idx int, ok bool) {
	for i := range e.wbq {
		if q := e.wbq[i]; q.addr == addr {
			e.wbq = slices.Delete(e.wbq, i, i+1)
			return e.install(addr, set, q.nb, true), true
		}
	}
	return 0, false
}

// evict removes the resident line at addr from the MEE cache, queueing it
// for write-back when it is dirty.
func (e *Engine) evict(addr dram.Addr) {
	set := e.CacheSetFor(addr)
	way, l := e.cache.InvalidateWay(set, e.cacheTag(addr))
	idx := e.bufIdx(set, way)
	if l.Dirty {
		e.wbq = append(e.wbq, queuedLine{addr: addr, nb: e.bufs[idx]})
	}
	e.bufs[idx] = nodeBuf{}
}

// drain writes back every queued line, last queued first, each on a walker
// of its own that starts at cycle now. A write-back loads and bumps its
// parent, and the dirty lines that load evicts join the queue, so no
// write-back starts inside another. Write-backs are posted: no requester
// waits for their walks.
func (e *Engine) drain(now sim.Cycles, rng *rand.Rand) {
	for n := len(e.wbq); n > 0; n = len(e.wbq) {
		q := e.wbq[n-1]
		e.wbq = e.wbq[:n-1]
		e.writeback(&walker{e: e, rng: rng, now: now}, q.addr, &q.nb)
	}
}

// writeback flushes a dirty tree line to DRAM. Version and level lines must
// first increment their covering counter (freshness) and re-MAC; tag lines
// are self-authenticating and are written out as-is.
func (e *Engine) writeback(w *walker, addr dram.Addr, nb *nodeBuf) {
	e.stats.Writebacks++
	var pc uint64
	switch kind := e.geom.Classify(addr); kind {
	case itree.KindTag:
		e.mem.WriteLine(addr, nb.tags.Encode())
		w.posted(addr, true)
		return
	case itree.KindVersion:
		l0, slot := e.geom.ParentOfVersion(uint64(addr-e.geom.VersBase) / itree.LineSize)
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

// markDirty sets the MEE cache's dirty bit of the line in buffer slot idx,
// the one record that the line must be written back.
func (e *Engine) markDirty(idx int) {
	e.cache.MarkDirtyWay(idx/e.cfg.CacheWays, idx%e.cfg.CacheWays)
}

// bumpLevelCounter loads the covering counter line, increments the child's
// slot, marks the line dirty, and returns the new counter value. Nothing
// installs a line between the load and the bump, so the slot still holds
// the line.
func (e *Engine) bumpLevelCounter(w *walker, level int, idx uint64, slot int) uint64 {
	i, err := e.loadLevel(w, level, idx)
	if err != nil {
		// A writeback that trips an integrity violation means the tree
		// itself is corrupt; surface loudly (tamper tests never write).
		panic(fmt.Sprintf("mee: integrity violation during writeback: %v", err))
	}
	c := &e.bufs[i].counter.Counters[slot]
	if *c >= itree.CounterMax {
		panic(fmt.Sprintf("mee: level %d counter overflow (re-key required)", level))
	}
	*c++
	e.markDirty(i)
	return *c
}

// residents returns the addresses of the lines resident in the MEE cache in
// ascending order, so that what a caller does with them is independent of
// storage layout (the map the buffers once were was sorted too). With
// dirty set, it returns only the dirty lines.
func (e *Engine) residents(dirty bool) []dram.Addr {
	addrs := make([]dram.Addr, 0, e.cache.ValidCount())
	e.cache.Lines(func(_, _ int, l cache.Line) {
		if !dirty || l.Dirty {
			addrs = append(addrs, tagAddr(l.Tag))
		}
	})
	slices.Sort(addrs)
	return addrs
}

// maybeRandomEvict implements the noise-injection mitigation: with
// probability RandomEvictProb, one randomly chosen resident tree line is
// evicted (queued for write-back if dirty) before the access proceeds.
func (e *Engine) maybeRandomEvict(rng *rand.Rand) {
	p := e.cfg.RandomEvictProb
	if p <= 0 || e.cache.ValidCount() == 0 || rng.Float64() >= p {
		return
	}
	addrs := e.residents(false)
	e.evict(addrs[rng.IntN(len(addrs))])
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
// per §3 of the paper). Writing back a dirty line dirties its parent, so it
// invalidates every dirty line into the write-back queue, drains the queue,
// and repeats until no line is dirty; then it drops the clean lines.
func (e *Engine) FlushCache(now sim.Cycles, rng *rand.Rand) {
	for dirty := e.residents(true); len(dirty) > 0; dirty = e.residents(true) {
		for _, addr := range dirty {
			e.evict(addr)
		}
		e.drain(now, rng)
	}
	e.cache.FlushAll()
	clear(e.bufs)
}

package cache

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// refEntry is one way of the reference model. stamp orders lines for
// replacement: the time of the last reference under LRU, of the fill under
// FIFO.
type refEntry struct {
	tag   Tag
	dirty bool
	stamp uint64
	valid bool
}

// refCache is the test-only reference: each set a list of entries, replaced
// by true LRU or FIFO, kept as plainly as possible so that it is obviously
// right. A fill takes the lowest empty way; the victim is the lowest way
// with the smallest stamp.
type refCache struct {
	sets    [][]refEntry
	lru     bool // false: FIFO
	clock   uint64
	stats   Stats
	evBySet []uint64
}

func newRefCache(sets, ways int, lru bool) *refCache {
	r := &refCache{sets: make([][]refEntry, sets), lru: lru, evBySet: make([]uint64, sets)}
	for s := range r.sets {
		r.sets[s] = make([]refEntry, ways)
	}
	return r
}

func (r *refCache) tick() uint64 { r.clock++; return r.clock }

// clone returns an independent copy of the reference.
func (r *refCache) clone() *refCache {
	n := *r
	n.sets = make([][]refEntry, len(r.sets))
	for s := range r.sets {
		n.sets[s] = slices.Clone(r.sets[s])
	}
	n.evBySet = slices.Clone(r.evBySet)
	return &n
}

func (r *refCache) find(set int, tag Tag) int {
	for w, e := range r.sets[set] {
		if e.valid && e.tag == tag {
			return w
		}
	}
	return -1
}

func (r *refCache) lookup(set int, tag Tag) (int, bool) {
	w := r.find(set, tag)
	if w < 0 {
		r.stats.Misses++
		return -1, false
	}
	r.stats.Hits++
	if r.lru {
		r.sets[set][w].stamp = r.tick()
	}
	return w, true
}

func (r *refCache) insert(set int, tag Tag, dirty bool) (int, Line) {
	ways := r.sets[set]
	if w := r.find(set, tag); w >= 0 {
		ways[w].dirty = ways[w].dirty || dirty
		if r.lru {
			ways[w].stamp = r.tick()
		}
		return w, Line{}
	}
	var evicted Line
	w := -1
	for i, e := range ways {
		if !e.valid {
			w = i
			break
		}
	}
	if w < 0 {
		w = 0
		for i, e := range ways {
			if e.stamp < ways[w].stamp {
				w = i
			}
		}
		evicted = Line{Tag: ways[w].tag, Valid: true, Dirty: ways[w].dirty}
		r.stats.Evictions++
		r.evBySet[set]++
		if evicted.Dirty {
			r.stats.WritebacksOut++
		}
	}
	ways[w] = refEntry{tag: tag, dirty: dirty, stamp: r.tick(), valid: true}
	r.stats.Fills++
	return w, evicted
}

func (r *refCache) invalidate(set int, tag Tag) (int, Line) {
	w := r.find(set, tag)
	if w < 0 {
		return -1, Line{}
	}
	e := r.sets[set][w]
	r.sets[set][w] = refEntry{}
	r.stats.Invalidations++
	if e.dirty {
		r.stats.WritebacksOut++
	}
	return w, Line{Tag: e.tag, Valid: true, Dirty: e.dirty}
}

func (r *refCache) markDirty(set int, tag Tag) bool {
	w := r.find(set, tag)
	if w >= 0 {
		r.sets[set][w].dirty = true
	}
	return w >= 0
}

func (r *refCache) flushAll() []Line {
	var dirty []Line
	for s := range r.sets {
		for w, e := range r.sets[s] {
			if !e.valid {
				continue
			}
			r.stats.Invalidations++
			if e.dirty {
				dirty = append(dirty, Line{Tag: e.tag, Valid: true, Dirty: true})
				r.stats.WritebacksOut++
			}
			r.sets[s][w] = refEntry{}
		}
	}
	return dirty
}

func (r *refCache) contents(set int) []Line {
	out := make([]Line, len(r.sets[set]))
	for w, e := range r.sets[set] {
		if e.valid {
			out[w] = Line{Tag: e.tag, Valid: true, Dirty: e.dirty}
		}
	}
	return out
}

// Reference-script opcodes: each op is three bytes, opcode, set and an
// argument whose low bits pick the tag and whose top bit is the dirty flag.
const (
	opLookup = iota
	opLookupWay
	opInsert
	opInsertWay
	opInvalidate
	opInvalidateWay
	opWayOf
	opMarkDirty
	opFlushAll
	opClone
	opRoundTrip
	numRefOps
)

// refMix weights the seed scripts' ops: mostly fills and probes, so sets
// fill up and evict, with the rarer ops spread between them.
var refMix = []byte{
	opInsert, opInsert, opInsert, opInsertWay, opInsertWay, opInsertWay, opInsertWay,
	opLookup, opLookup, opLookupWay, opLookupWay, opLookupWay,
	opInvalidate, opInvalidateWay, opWayOf, opMarkDirty, opClone, opRoundTrip,
}

// refScript returns a deterministic random script of n ops on a geometry of
// sets x ways under LRU (lru) or FIFO, ending in a FlushAll, for the seed
// corpus.
func refScript(sets, ways int, lru bool, seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, uint64(sets*16+ways)))
	b := []byte{byte(sets - 1), byte(ways - 1), 1}
	if lru {
		b[2] = 0
	}
	for i := 0; i < n; i++ {
		b = append(b, refMix[rng.IntN(len(refMix))], byte(rng.IntN(256)), byte(rng.IntN(256)))
	}
	return append(b, opFlushAll, 0, 0)
}

// refSide is one running cache of a fuzz script and the reference it must
// match.
type refSide struct {
	c *Cache
	r *refCache
}

// sideNames label a fuzz script's running caches in failures.
var sideNames = []string{"first side", "second side"}

// checkSide fails t unless c, the cache called what, agrees with r: Stats,
// EvictionsBySet, every set's contents, and Lines, which lists exactly the
// valid lines in [set*ways+way] order.
func checkSide(t *testing.T, op int, what string, c *Cache, r *refCache) {
	t.Helper()
	if c.Stats() != r.stats {
		t.Fatalf("op %d: %s: stats %+v, reference %+v", op, what, c.Stats(), r.stats)
	}
	if !slices.Equal(c.EvictionsBySet(), r.evBySet) {
		t.Fatalf("op %d: %s: evictions by set %v, reference %v", op, what, c.EvictionsBySet(), r.evBySet)
	}
	var want, got []Line
	for s := range r.sets {
		contents := r.contents(s)
		if got := c.SetContents(s); !slices.Equal(got, contents) {
			t.Fatalf("op %d: %s: set %d holds %+v, reference %+v", op, what, s, got, contents)
		}
		for _, l := range contents {
			if l.Valid {
				want = append(want, l)
			}
		}
	}
	c.Lines(func(s, w int, l Line) {
		if l != c.SetContents(s)[w] {
			t.Fatalf("op %d: %s: Lines gives set %d way %d as %+v, SetContents %+v", op, what, s, w, l, c.SetContents(s)[w])
		}
		got = append(got, l)
	})
	if !slices.Equal(got, want) {
		t.Fatalf("op %d: %s: Lines lists %+v, reference %+v", op, what, got, want)
	}
}

// FuzzCacheMatchesReference drives a random script over a shrunk geometry
// (1–8 sets, 1–16 ways, LRU or FIFO) through the cache and the reference
// model side by side. After every op the hit, way, evicted or removed line,
// Stats, EvictionsBySet and every set's contents must agree.
//
// Clone splits the script in two, taken the two ways a fork is: with the
// dirty flag clear, the running cache is snapshotted and keeps running
// beside a clone of the snapshot; with it set, the running cache freezes
// and two clones of it run. From then on the ops alternate between the two
// sides, each checked against its own copy of the reference, and the frozen
// cache against the reference as it was. So a write by either side that
// reaches the other or the frozen cache through a shared block diverges. A
// round trip continues the current side on the cache ReadImage reads from
// its image.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, opInsert, 0, 1, opLookup, 0, 1, opRoundTrip, 0, 0, opLookupWay, 0, 1})
	f.Add([]byte{7, 15, 1, opInsertWay, 3, 0x85, opClone, 0, 0, opInvalidateWay, 3, 5, opFlushAll, 0, 0})
	f.Add([]byte{1, 3, 0, opInsert, 1, 0x82, opClone, 0, 0x80, opMarkDirty, 1, 2, opInsert, 1, 2, opFlushAll, 0, 0, opInsert, 1, 3})
	for i, g := range [][2]int{{1, 1}, {1, 16}, {2, 4}, {3, 2}, {4, 8}, {5, 5}, {8, 3}, {8, 16}} {
		f.Add(refScript(g[0], g[1], i%2 == 0, uint64(i), 600))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 3 {
			return
		}
		sets, ways, lru := 1+int(script[0])%8, 1+int(script[1])%16, script[2]%2 == 0
		var c *Cache
		if lru {
			c = New("ref", sets, ways, NewLRU())
		} else {
			c = New("ref", sets, ways, NewFIFO())
		}
		sides := []refSide{{c, newRefCache(sets, ways, lru)}}
		var frozen refSide
		for i := 3; i+2 < len(script); i += 3 {
			opIdx := i/3 - 1
			cur := &sides[opIdx%len(sides)]
			c, r := cur.c, cur.r
			op, set := script[i]%numRefOps, int(script[i+1])%sets
			tag, dirty := Tag(script[i+2]&0x7f)%Tag(2*ways+1), script[i+2]&0x80 != 0
			var got, want any
			switch op {
			case opLookup:
				got = c.Lookup(set, tag)
				_, hit := r.lookup(set, tag)
				want = hit
			case opLookupWay:
				w, hit := c.LookupWay(set, tag)
				got = [2]any{w, hit}
				rw, rhit := r.lookup(set, tag)
				want = [2]any{rw, rhit}
			case opInsert:
				got = c.Insert(set, tag, dirty)
				_, want = r.insert(set, tag, dirty)
			case opInsertWay:
				w, ev := c.InsertWay(set, tag, dirty)
				got = [2]any{w, ev}
				rw, rev := r.insert(set, tag, dirty)
				want = [2]any{rw, rev}
			case opInvalidate:
				got = c.Invalidate(set, tag)
				_, want = r.invalidate(set, tag)
			case opInvalidateWay:
				w, l := c.InvalidateWay(set, tag)
				got = [2]any{w, l}
				rw, rl := r.invalidate(set, tag)
				want = [2]any{rw, rl}
			case opWayOf:
				w, ok := c.WayOf(set, tag)
				got = [2]any{w, ok}
				rw := r.find(set, tag)
				want = [2]any{rw, rw >= 0}
			case opMarkDirty:
				got, want = c.MarkDirty(set, tag), r.markDirty(set, tag)
			case opFlushAll:
				got, want = c.FlushAll(), r.flushAll()
			case opClone:
				if dirty {
					// A frozen cache: c stops and two clones of it run.
					frozen = refSide{c, r.clone()}
					sides = []refSide{{c.Clone(nil), r}, {c.Clone(nil), r.clone()}}
				} else {
					// A live cache: c keeps running beside a clone of its
					// snapshot.
					snap := c.Snapshot()
					frozen = refSide{snap, r.clone()}
					sides = []refSide{{c, r}, {snap.Clone(nil), r.clone()}}
				}
			case opRoundTrip:
				n, err := readImage(image(c), c)
				if err != nil {
					t.Fatalf("op %d: round trip: %v", opIdx, err)
				}
				cur.c = n
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%d set %d tag %d dirty %v): cache %+v, reference %+v", opIdx, op, set, tag, dirty, got, want)
			}
			for k, sd := range sides {
				checkSide(t, opIdx, sideNames[k], sd.c, sd.r)
			}
			if frozen.c != nil {
				checkSide(t, opIdx, "frozen cache", frozen.c, frozen.r)
			}
		}
	})
}

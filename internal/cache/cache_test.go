package cache

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestInsertFillsEmptyWaysFirst(t *testing.T) {
	c := New("t", 2, 4, NewLRU())
	for i := 0; i < 4; i++ {
		ev := c.Insert(0, Tag(i), false)
		if ev.Valid {
			t.Fatalf("insert %d evicted %+v with empty ways left", i, ev)
		}
	}
	if got := c.ValidCount(); got != 4 {
		t.Fatalf("valid=%d, want 4", got)
	}
	if st := c.Stats(); st.Fills != 4 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	c := New("t", 1, 4, NewLRU())
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	// Touch 0 so 1 becomes LRU.
	if !c.Lookup(0, 0) {
		t.Fatal("tag 0 should hit")
	}
	ev := c.Insert(0, 99, false)
	if !ev.Valid || ev.Tag != 1 {
		t.Fatalf("evicted %+v, want tag 1", ev)
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := New("t", 1, 4, NewFIFO())
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	c.Lookup(0, 0) // should not refresh under FIFO
	ev := c.Insert(0, 99, false)
	if !ev.Valid || ev.Tag != 0 {
		t.Fatalf("evicted %+v, want tag 0 (first in)", ev)
	}
}

func TestInsertExistingTagTouchesInsteadOfDuplicating(t *testing.T) {
	c := New("t", 1, 4, NewLRU())
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	c.Insert(0, 0, true) // re-insert: touch + dirty
	if c.ValidCount() != 4 {
		t.Fatalf("valid=%d, want 4", c.ValidCount())
	}
	ev := c.Insert(0, 99, false)
	if ev.Tag != 1 {
		t.Fatalf("evicted %+v, want tag 1 (0 was refreshed)", ev)
	}
	// The dirty bit must have been ORed in.
	line := c.Invalidate(0, 0)
	if !line.Valid || !line.Dirty {
		t.Fatalf("line %+v, want valid dirty", line)
	}
}

func TestInvalidateRemovesAndReportsDirty(t *testing.T) {
	c := New("t", 1, 2, NewLRU())
	c.Insert(0, 7, true)
	l := c.Invalidate(0, 7)
	if !l.Valid || !l.Dirty || l.Tag != 7 {
		t.Fatalf("invalidate returned %+v", l)
	}
	if c.Contains(0, 7) {
		t.Fatal("tag still present after invalidate")
	}
	if l2 := c.Invalidate(0, 7); l2.Valid {
		t.Fatalf("second invalidate returned %+v, want invalid", l2)
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := New("t", 1, 1, NewLRU())
	c.Insert(0, 1, true)
	ev := c.Insert(0, 2, false)
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("evicted %+v, want dirty line", ev)
	}
	if st := c.Stats(); st.WritebacksOut != 1 {
		t.Fatalf("writebacks=%d, want 1", st.WritebacksOut)
	}
}

func TestFlushAllReturnsDirtyLines(t *testing.T) {
	c := New("t", 4, 2, NewLRU())
	c.Insert(0, 1, true)
	c.Insert(1, 2, false)
	c.Insert(2, 3, true)
	dirty := c.FlushAll()
	if len(dirty) != 2 {
		t.Fatalf("dirty lines %v, want 2", dirty)
	}
	if c.ValidCount() != 0 {
		t.Fatal("cache not empty after FlushAll")
	}
}

func TestTreePLRUCyclesAllWaysOnConsecutiveMisses(t *testing.T) {
	for _, ways := range []int{2, 4, 8, 16} {
		c := New("t", 1, ways, NewTreePLRU())
		for i := 0; i < ways; i++ {
			c.Insert(0, Tag(i), false)
		}
		seen := map[Tag]bool{}
		for i := 0; i < ways; i++ {
			ev := c.Insert(0, Tag(100+i), false)
			if !ev.Valid {
				t.Fatalf("ways=%d miss %d evicted nothing", ways, i)
			}
			if seen[ev.Tag] {
				t.Fatalf("ways=%d evicted %d twice in one sweep", ways, ev.Tag)
			}
			seen[ev.Tag] = true
		}
		if len(seen) != ways {
			t.Fatalf("ways=%d sweep evicted %d distinct lines", ways, len(seen))
		}
	}
}

func TestTreePLRUVictimAvoidsJustTouched(t *testing.T) {
	c := New("t", 1, 8, NewTreePLRU())
	for i := 0; i < 8; i++ {
		c.Insert(0, Tag(i), false)
	}
	for trial := 0; trial < 100; trial++ {
		tag := Tag(trial % 8)
		c.Lookup(0, tag)
		ev := c.Insert(0, Tag(1000+trial), false)
		if ev.Tag == tag {
			t.Fatalf("tree-plru evicted the just-touched line %d", tag)
		}
		// Restore the evicted original if it was one of 0..7 so the
		// working set stays analyzable.
		c.Invalidate(0, Tag(1000+trial))
		if ev.Valid {
			c.Insert(0, ev.Tag, false)
		}
	}
}

func TestTreePLRURejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 6-way tree-plru")
		}
	}()
	New("t", 1, 6, NewTreePLRU())
}

func TestBitPLRUVictimIsUnreferenced(t *testing.T) {
	c := New("t", 1, 4, NewBitPLRU())
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	// After 4 fills the last fill's bit survives the wrap-reset.
	c.Lookup(0, 1)
	c.Lookup(0, 2)
	ev := c.Insert(0, 99, false)
	if ev.Tag == 1 || ev.Tag == 2 || ev.Tag == 3 {
		t.Fatalf("bit-plru evicted recently used tag %d", ev.Tag)
	}
}

func TestRandomPolicyIsSeededDeterministic(t *testing.T) {
	run := func(seed uint64) []Tag {
		rng := rand.New(rand.NewPCG(seed, 0))
		c := New("t", 1, 8, NewRandom(rng))
		for i := 0; i < 8; i++ {
			c.Insert(0, Tag(i), false)
		}
		var evs []Tag
		for i := 0; i < 32; i++ {
			ev := c.Insert(0, Tag(100+i), false)
			evs = append(evs, ev.Tag)
		}
		return evs
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random policy not reproducible for equal seeds")
		}
	}
}

func TestPolicyByName(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, name := range []string{"lru", "fifo", "tree-plru", "bit-plru", "random"} {
		p, err := PolicyByName(name, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("policy name %q != %q", p.Name(), name)
		}
	}
	if _, err := PolicyByName("mru", nil); err == nil {
		t.Fatal("expected error for unknown policy")
	}
	if _, err := PolicyByName("random", nil); err == nil {
		t.Fatal("expected error for random policy without rng")
	}
	// CheckPolicyName judges the name alone: random needs no rng to pass.
	if err := CheckPolicyName("random"); err != nil {
		t.Fatalf("CheckPolicyName(random): %v", err)
	}
	if err := CheckPolicyName("mru"); err == nil {
		t.Fatal("CheckPolicyName accepted an unknown policy")
	}
}

// Property: under any access pattern, a set never holds more lines than its
// associativity, never holds duplicate tags, and Lookup(x) after Insert(x)
// hits as long as fewer than `ways` other inserts intervened (true LRU).
func TestQuickLRUSetInvariants(t *testing.T) {
	const ways = 4
	f := func(ops []uint8) bool {
		c := New("q", 2, ways, NewLRU())
		for _, op := range ops {
			set := int(op) & 1
			tag := Tag(op >> 1)
			if op&0x80 != 0 {
				c.Invalidate(set, tag)
			} else {
				c.Insert(set, tag, op&0x40 != 0)
			}
			for s := 0; s < 2; s++ {
				seen := map[Tag]bool{}
				n := 0
				for _, l := range c.SetContents(s) {
					if !l.Valid {
						continue
					}
					n++
					if seen[l.Tag] {
						return false // duplicate tag
					}
					seen[l.Tag] = true
				}
				if n > ways {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: an insert of a fresh tag into a full LRU set always evicts the
// unique least-recently-used tag.
func TestQuickLRUExactEvictionOrder(t *testing.T) {
	f := func(touches []uint8) bool {
		const ways = 4
		c := New("q", 1, ways, NewLRU())
		order := []Tag{} // recency order, oldest first
		touch := func(tg Tag) {
			for i, x := range order {
				if x == tg {
					order = append(append(order[:i:i], order[i+1:]...), tg)
					return
				}
			}
			order = append(order, tg)
		}
		for i := 0; i < ways; i++ {
			c.Insert(0, Tag(i), false)
			touch(Tag(i))
		}
		for _, raw := range touches {
			tg := Tag(raw % ways)
			c.Lookup(0, tg)
			touch(tg)
		}
		ev := c.Insert(0, 999, false)
		return ev.Valid && ev.Tag == order[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsHitMissCounting(t *testing.T) {
	c := New("t", 1, 2, NewLRU())
	c.Lookup(0, 1) // miss
	c.Insert(0, 1, false)
	c.Lookup(0, 1) // hit
	c.Lookup(0, 2) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 1 hit 2 misses", st)
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

// TestTransitMatchesInsertInvalidate checks Transit against the pair it
// stands for under every policy: two caches run the same random lookups,
// dirty inserts and invalidations over a few sets, and wherever one takes a
// Transit of an absent line the other inserts and invalidates it. Their
// images (valid and dirty masks, tags, windows, statistics, eviction
// counters) must stay equal, in sets with an empty way, where Transit
// writes only the window, and in full sets, where a victim leaves.
func TestTransitMatchesInsertInvalidate(t *testing.T) {
	for _, name := range policyNames {
		transit, err := PolicyByName(name, rand.New(rand.NewPCG(5, 5)))
		if err != nil {
			t.Fatal(err)
		}
		pair, _ := PolicyByName(name, rand.New(rand.NewPCG(5, 5)))
		a, b := New("c", 4, 4, transit), New("c", 4, 4, pair)
		ops := rand.New(rand.NewPCG(9, uint64(len(name))))
		for i := 0; i < 3000; i++ {
			set, tag := ops.IntN(4), Tag(ops.IntN(24))
			switch ops.IntN(4) {
			case 0:
				a.Lookup(set, tag)
				b.Lookup(set, tag)
			case 1:
				dirty := ops.IntN(2) == 0
				a.Insert(set, tag, dirty)
				b.Insert(set, tag, dirty)
			case 2:
				a.Invalidate(set, tag)
				b.Invalidate(set, tag)
			default:
				if a.Contains(set, tag) {
					continue
				}
				a.Transit(set, tag)
				b.Insert(set, tag, false)
				b.Invalidate(set, tag)
			}
			if !bytes.Equal(image(a), image(b)) {
				t.Fatalf("%s, op %d: Transit and Insert+Invalidate left different images", name, i)
			}
		}
	}
}

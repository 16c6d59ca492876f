package cache

import (
	"math/rand/v2"
	"testing"
)

func TestNRUNeverEvictsReferenced(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	c := New("t", 1, 4, NewNRU(rng))
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	// Fills set all four ref bits; the wrap cleared all but the last
	// (tag 3). Touch 1: now 1 and 3 are referenced.
	c.Lookup(0, 1)
	for trial := 0; trial < 50; trial++ {
		ev := c.Insert(0, 99, false)
		if ev.Tag == 1 || ev.Tag == 3 {
			t.Fatalf("nru evicted referenced tag %d", ev.Tag)
		}
		c.Invalidate(0, 99)
		c.Insert(0, ev.Tag, false) // restore
		c.Lookup(0, 1)
		c.Lookup(0, 3)
	}
}

func TestNRUWrapsWhenAllReferenced(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	c := New("t", 1, 2, NewNRU(rng))
	c.Insert(0, 1, false)
	c.Insert(0, 2, false)
	c.Lookup(0, 1)
	c.Lookup(0, 2) // all referenced -> wrap, only 2 stays referenced
	ev := c.Insert(0, 3, false)
	if ev.Tag != 1 {
		t.Fatalf("evicted %d, want 1 after wrap", ev.Tag)
	}
}

func TestSRRIPPromotionOnHit(t *testing.T) {
	c := New("t", 1, 4, NewSRRIP())
	for i := 0; i < 4; i++ {
		c.Insert(0, Tag(i), false)
	}
	// Promote 0 and 2 to RRPV 0; fills sit at srripMax-1.
	c.Lookup(0, 0)
	c.Lookup(0, 2)
	ev := c.Insert(0, 99, false)
	if ev.Tag == 0 || ev.Tag == 2 {
		t.Fatalf("srrip evicted promoted tag %d", ev.Tag)
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A hot line with repeated hits must survive a long one-shot scan —
	// the property SRRIP exists for and LRU lacks.
	c := New("t", 1, 4, NewSRRIP())
	hot := Tag(1000)
	c.Insert(0, hot, false)
	for i := 0; i < 5; i++ {
		c.Lookup(0, hot)
	}
	survived := 0
	for i := 0; i < 40; i++ {
		c.Insert(0, Tag(i), false)
		if c.Contains(0, hot) {
			survived++
		}
		c.Lookup(0, hot) // keep it hot
	}
	if survived < 35 {
		t.Fatalf("hot line survived only %d/40 scan fills", survived)
	}
}

func TestExtendedPolicyByName(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, name := range []string{"nru", "srrip"} {
		p, err := PolicyByName(name, rng)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("%q != %q", p.Name(), name)
		}
	}
	if _, err := PolicyByName("nru", nil); err == nil {
		t.Fatal("nru without rng accepted")
	}
	if _, err := PolicyByName("plru", nil); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestAllPoliciesSatisfyBasicInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, name := range policyNames {
		p, err := PolicyByName(name, rng)
		if err != nil {
			t.Fatal(err)
		}
		c := New(name, 2, 8, p)
		for i := 0; i < 200; i++ {
			set := i % 2
			tag := Tag(i % 23)
			if !c.Lookup(set, tag) {
				c.Insert(set, tag, false)
			}
			if n := c.ValidCount(); n > 16 {
				t.Fatalf("%s: %d valid lines in a 16-line cache", name, n)
			}
		}
		// Every set still under capacity and no duplicates.
		for set := 0; set < 2; set++ {
			seen := map[Tag]bool{}
			for _, l := range c.SetContents(set) {
				if !l.Valid {
					continue
				}
				if seen[l.Tag] {
					t.Fatalf("%s: duplicate tag %d", name, l.Tag)
				}
				seen[l.Tag] = true
			}
		}
	}
}

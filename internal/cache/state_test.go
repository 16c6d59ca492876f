package cache

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// TestStateRoundTripAllPolicies: every policy's replacement windows survive
// ExportState → FromState, and FromState rejects a window of the wrong
// length or, for the bit-vector and RRPV policies, a word out of range.
func TestStateRoundTripAllPolicies(t *testing.T) {
	for _, tc := range []struct {
		name       string
		rejectsTwo bool // 2 is out of range for a 0/1 word
		rejectsMax bool // srripMax+1 is out of range for an RRPV
	}{
		{"lru", false, false},
		{"fifo", false, false},
		{"tree-plru", true, true},
		{"bit-plru", true, true},
		{"random", false, false},
		{"nru", true, true},
		{"srrip", false, true},
	} {
		p, err := PolicyByName(tc.name, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatal(err)
		}
		c := New(tc.name, 4, 8, p)
		for i := 0; i < 100; i++ {
			if set, tag := i%4, Tag(i%37); !c.Lookup(set, tag) {
				c.Insert(set, tag, i%3 == 0)
			}
		}
		st := c.ExportState()
		dec, err := FromState(st, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(dec.ExportState(), st) {
			t.Fatalf("%s: decoded cache re-exports a different image", tc.name)
		}
		if p.Words(8) == 0 {
			continue
		}
		corrupt := func(w []uint64) error {
			bad := *st
			bad.Listed = slices.Clone(st.Listed)
			bad.Listed[1].Window = w
			_, err := FromState(&bad, nil)
			return err
		}
		if corrupt(st.Listed[1].Window[1:]) == nil {
			t.Errorf("%s: short window accepted", tc.name)
		}
		for v, rejects := range map[uint64]bool{2: tc.rejectsTwo, srripMax + 1: tc.rejectsMax} {
			w := slices.Clone(st.Listed[1].Window)
			w[len(w)-1] = v
			if got := corrupt(w) != nil; got != rejects {
				t.Errorf("%s: window word %d rejected = %v, want %v", tc.name, v, got, rejects)
			}
		}
	}
}

// TestStateRejectsUnrepresentableWays: a set's occupancy is one 64-bit mask,
// so an image with no ways or more than 64 must fail to decode instead of
// yielding a cache whose high ways no scan visits.
func TestStateRejectsUnrepresentableWays(t *testing.T) {
	for _, ways := range []int{0, maxWays + 1} {
		st := &State{
			Name:       "t",
			Sets:       2,
			Ways:       ways,
			PolicyName: "lru",
			Listed:     []SetState{{Set: 1, Valid: 1, Tags: []Tag{7}, Window: make([]uint64, 1+ways)}},
		}
		if _, err := FromState(st, nil); err == nil {
			t.Errorf("%d-way image decoded without error", ways)
		}
	}
}

// TestUntouchedSetsAreNotListed: for every policy PolicyByName accepts, a
// cache with a few touched sets round-trips through ExportState and
// FromState to an equal export. The image lists exactly the sets that
// differ from an untouched one, each with its lines, and leaves out every
// set never written. Set 5 is written and then emptied, so it holds no
// line; it is listed exactly when its window is no longer the policy's
// Init window (SRRIP's is not zero), as for the policies whose Invalidate
// does not restore Init.
func TestUntouchedSetsAreNotListed(t *testing.T) {
	const sets, ways = 16, 4
	touched := []int{2, 5, 9, 15}
	for _, name := range policyNames {
		p, err := PolicyByName(name, rand.New(rand.NewPCG(3, 4)))
		if err != nil {
			t.Fatal(err)
		}
		c := New(name, sets, ways, p)
		for _, set := range touched {
			for i := 0; i < 6; i++ {
				c.Insert(set, Tag(set*100+i), i%2 == 0)
				c.Lookup(set, Tag(set*100+i/2))
			}
		}
		for _, l := range c.SetContents(5) {
			c.Invalidate(5, l.Tag)
		}
		st := c.ExportState()
		dec, err := FromState(st, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(dec.ExportState(), st) {
			t.Errorf("%s: decoded cache re-exports a different image", name)
		}
		init := make([]uint64, p.Words(ways))
		p.Init(init)
		var listed []int
		for _, ss := range st.Listed {
			listed = append(listed, ss.Set)
			if !slices.Contains(touched, ss.Set) {
				t.Errorf("%s: untouched set %d is listed as %+v", name, ss.Set, ss)
			}
			var lines []Line
			for w, l := range c.SetContents(ss.Set) {
				if l.Valid != (ss.Valid&(1<<w) != 0) || l.Valid && l.Dirty != (ss.Dirty&(1<<w) != 0) {
					t.Errorf("%s set %d way %d: line %+v, image masks %#x/%#x", name, ss.Set, w, l, ss.Valid, ss.Dirty)
				}
				if l.Valid {
					lines = append(lines, l)
				}
			}
			for i, l := range lines {
				if i >= len(ss.Tags) || ss.Tags[i] != l.Tag {
					t.Errorf("%s set %d: image tags %v, want the valid ways' %+v", name, ss.Set, ss.Tags, lines)
					break
				}
			}
		}
		want := []int{2, 9, 15}
		if !slices.Equal(init, c.window(c.blocks.Read(5))) {
			want = []int{2, 5, 9, 15}
		}
		if !slices.Equal(listed, want) {
			t.Errorf("%s: image lists sets %v, want %v", name, listed, want)
		}
	}
}

// TestFromStateRejectsMalformedImage: each row breaks one rule that
// FromState holds a listing or the sparse eviction counters to, and the
// damaged image must not decode. The rules keep decode → export a fixed
// point: an image that decodes is exactly what the decoded cache exports.
func TestFromStateRejectsMalformedImage(t *testing.T) {
	c := New("t", 8, 4, NewLRU())
	for i := 0; i < 40; i++ {
		c.Insert(i%3*2, Tag(i), i%4 == 0) // sets 0, 2 and 4, with evictions
	}
	c.Insert(6, 99, false)
	c.Invalidate(6, 99) // listed for its window alone
	st := c.ExportState()
	if len(st.Listed) != 4 || len(st.EvBySet) != 3 || st.Listed[3].Valid != 0 {
		t.Fatalf("fixture lists %+v with counters %v; want 4 sets, the last empty, and 3 counters", st.Listed, st.EvBySet)
	}
	if _, err := FromState(st, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		damage func(st *State)
	}{
		{"set index repeats", func(st *State) { st.Listed[1].Set = st.Listed[0].Set }},
		{"set index descends", func(st *State) { st.Listed[0], st.Listed[1] = st.Listed[1], st.Listed[0] }},
		{"set index at Sets", func(st *State) { st.Listed[3].Set = st.Sets }},
		{"negative set index", func(st *State) { st.Listed[0].Set = -1 }},
		{"valid bit at Ways", func(st *State) {
			ss := &st.Listed[3]
			ss.Valid, ss.Tags = 1<<st.Ways, []Tag{5}
		}},
		{"dirty bit outside valid", func(st *State) { st.Listed[3].Dirty = 1 }},
		{"tag missing", func(st *State) { st.Listed[0].Tags = st.Listed[0].Tags[1:] }},
		{"listed set untouched", func(st *State) { clear(st.Listed[3].Window) }},
		{"counter out of order", func(st *State) { st.EvBySet[0], st.EvBySet[1] = st.EvBySet[1], st.EvBySet[0] }},
		{"counter out of range", func(st *State) { st.EvBySet[2].Index = st.Sets }},
		{"counter zero", func(st *State) { st.EvBySet[1].Value = 0 }},
	} {
		bad := c.ExportState()
		tc.damage(bad)
		if _, err := FromState(bad, nil); err == nil {
			t.Errorf("%s: damaged image decoded", tc.name)
		}
	}
}

// TestSparseWords: SparseWords lists a vector's nonzero words, and
// FillWords restores the vector from them.
func TestSparseWords(t *testing.T) {
	v := []uint64{0, 3, 0, 0, 9, 0}
	ws := SparseWords(v)
	if want := []Word{{1, 3}, {4, 9}}; !slices.Equal(ws, want) {
		t.Fatalf("SparseWords(%v) = %v, want %v", v, ws, want)
	}
	got := make([]uint64, len(v))
	if err := FillWords(got, ws); err != nil || !slices.Equal(got, v) {
		t.Fatalf("FillWords gives %v (err %v), want %v", got, err, v)
	}
	if err := FillWords(make([]uint64, 4), ws); err == nil {
		t.Error("FillWords accepted an index beyond the vector")
	}
}

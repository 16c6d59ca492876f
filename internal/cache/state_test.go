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
			bad.SetWords = slices.Clone(st.SetWords)
			bad.SetWords[1] = w
			_, err := FromState(&bad, nil)
			return err
		}
		if corrupt(st.SetWords[1][1:]) == nil {
			t.Errorf("%s: short window accepted", tc.name)
		}
		for v, rejects := range map[uint64]bool{2: tc.rejectsTwo, srripMax + 1: tc.rejectsMax} {
			w := slices.Clone(st.SetWords[1])
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
			Lines:      make([]Line, 2*ways),
			SetWords:   [][]uint64{make([]uint64, 1+ways), make([]uint64, 1+ways)},
			EvBySet:    make([]uint64, 2),
		}
		if _, err := FromState(st, nil); err == nil {
			t.Errorf("%d-way image decoded without error", ways)
		}
	}
}

// TestUntouchedSetsExportInitWindow: for every policy PolicyByName accepts,
// a cache with a few touched sets round-trips through ExportState and
// FromState to an equal export, and each set never written exports zero
// lines and the policy's Init window, which for SRRIP is not zero. Set 5 is
// written and then emptied, so it holds no line but keeps a window of its
// own for the policies whose Invalidate does not restore Init.
func TestUntouchedSetsExportInitWindow(t *testing.T) {
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
		for s := 0; s < sets; s++ {
			if slices.Contains(touched, s) {
				continue
			}
			if lines := st.Lines[s*ways : (s+1)*ways]; !slices.Equal(lines, make([]Line, ways)) {
				t.Errorf("%s: untouched set %d exports lines %+v", name, s, lines)
			}
			if !slices.Equal(st.SetWords[s], init) {
				t.Errorf("%s: untouched set %d exports window %v, want Init's %v", name, s, st.SetWords[s], init)
			}
		}
	}
}

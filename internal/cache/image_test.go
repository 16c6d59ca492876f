package cache

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"meecc/internal/wire"
)

// image returns the image c appends.
func image(c *Cache) []byte {
	var w wire.Writer
	c.AppendImage(&w)
	return w.Bytes()
}

// readImage reads img as the image of a cache of c's geometry.
func readImage(img []byte, c *Cache) (*Cache, error) {
	return ReadImage(wire.NewReader(img), c.sets, c.ways)
}

// listedSet is one listed set of a cache image, as imageSets finds it: its
// fields, and where its record starts and ends in the image.
type listedSet struct {
	set          int
	valid, dirty uint64
	tags         []Tag
	window       []uint64
	at, end      int
}

// imageSets walks a cache image, for tests that check or damage its
// listing: it returns the listed sets and the offset of the statistics
// that follow them.
func imageSets(t *testing.T, img []byte) (sets []listedSet, stats int) {
	t.Helper()
	r := wire.NewReader(img)
	off := func() int { return len(img) - r.Remaining() }
	_ = r.String() // name
	r.U32()        // sets
	r.U32()        // ways
	_ = r.String() // policy
	stride := int(r.U32())
	for i, n := 0, r.Count(setWire+8*stride); i < n; i++ {
		ls := listedSet{at: off()}
		ls.set = int(r.U32())
		ls.valid, ls.dirty = r.U64(), r.U64()
		for m := ls.valid; m != 0; m &= m - 1 {
			ls.tags = append(ls.tags, Tag(r.U64()))
		}
		for j := 0; j < stride; j++ {
			ls.window = append(ls.window, r.U64())
		}
		ls.end = off()
		sets = append(sets, ls)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return sets, off()
}

// TestStateRoundTripAllPolicies: every policy's replacement windows survive
// AppendImage → ReadImage, and ReadImage rejects windows of the wrong
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
		img := image(c)
		dec, err := readImage(img, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(image(dec), img) {
			t.Fatalf("%s: decoded cache appends a different image", tc.name)
		}
		if p.Words(8) == 0 {
			continue
		}
		short := *c
		short.stride--
		if _, err := readImage(image(&short), c); err == nil {
			t.Errorf("%s: short windows accepted", tc.name)
		}
		for v, rejects := range map[uint64]bool{2: tc.rejectsTwo, srripMax + 1: tc.rejectsMax} {
			bad := c.Clone(nil)
			w := bad.window(bad.blocks.Write(1))
			w[len(w)-1] = v
			_, err := readImage(image(bad), c)
			if got := err != nil; got != rejects {
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
		var w wire.Writer
		w.String("t")
		w.U32(2)
		w.U32(uint32(ways))
		w.String("lru")
		w.U32(uint32(1 + ways))
		w.U64(1) // one listed set: set 1, one clean line of tag 7
		w.U32(1)
		w.U64(1)
		w.U64(0)
		w.U64(7)
		w.U64s(make([]uint64, 1+ways)[1:]) // the window: its length prefix is its first word
		for range 6 {
			w.U64(0) // statistics
		}
		w.SparseWords(nil)
		if _, err := ReadImage(wire.NewReader(w.Bytes()), 2, ways); err == nil {
			t.Errorf("%d-way image decoded without error", ways)
		}
	}
}

// TestUntouchedSetsAreNotListed: for every policy PolicyByName accepts, a
// cache with a few touched sets round-trips through AppendImage and
// ReadImage to an equal image. The image lists exactly the sets that
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
		img := image(c)
		dec, err := readImage(img, c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(image(dec), img) {
			t.Errorf("%s: decoded cache appends a different image", name)
		}
		init := make([]uint64, p.Words(ways))
		p.Init(init)
		listedSets, _ := imageSets(t, img)
		var listed []int
		for _, ss := range listedSets {
			listed = append(listed, ss.set)
			if !slices.Contains(touched, ss.set) {
				t.Errorf("%s: untouched set %d is listed as %+v", name, ss.set, ss)
			}
			var lines []Line
			for w, l := range c.SetContents(ss.set) {
				if l.Valid != (ss.valid&(1<<w) != 0) || l.Valid && l.Dirty != (ss.dirty&(1<<w) != 0) {
					t.Errorf("%s set %d way %d: line %+v, image masks %#x/%#x", name, ss.set, w, l, ss.valid, ss.dirty)
				}
				if l.Valid {
					lines = append(lines, l)
				}
			}
			for i, l := range lines {
				if i >= len(ss.tags) || ss.tags[i] != l.Tag {
					t.Errorf("%s set %d: image tags %v, want the valid ways' %+v", name, ss.set, ss.tags, lines)
					break
				}
			}
			if !slices.Equal(ss.window, c.window(c.blocks.Read(ss.set))) {
				t.Errorf("%s set %d: image window %v, want the set's %v", name, ss.set, ss.window, c.window(c.blocks.Read(ss.set)))
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

// TestReadImageRejectsMalformedImage: each row patches the image of a
// cache to break one rule that ReadImage holds an image's header, listing
// or sparse eviction counters to, and the damaged image must not decode.
// The rules keep read → append a fixed point: an image that reads back is
// exactly what the cache read from it appends.
func TestReadImageRejectsMalformedImage(t *testing.T) {
	c := New("t", 8, 4, NewLRU())
	for i := 0; i < 40; i++ {
		c.Insert(i%3*2, Tag(i), i%4 == 0) // sets 0, 2 and 4, with evictions
	}
	c.Insert(6, 99, false)
	c.Invalidate(6, 99) // listed for its window alone
	img := image(c)
	sets, stats := imageSets(t, img)
	counters := stats + 6*8 + 8 // the first sparse counter, past the statistics and the count
	if len(sets) != 4 || sets[3].valid != 0 || binary.LittleEndian.Uint64(img[counters-8:]) != 3 {
		t.Fatalf("fixture lists %+v with counters %x; want 4 sets, the last empty, and 3 counters", sets, img[counters-8:])
	}
	if _, err := readImage(img, c); err != nil {
		t.Fatal(err)
	}
	put32 := func(b []byte, at int, v uint32) []byte { binary.LittleEndian.PutUint32(b[at:], v); return b }
	put64 := func(b []byte, at int, v uint64) []byte { binary.LittleEndian.PutUint64(b[at:], v); return b }
	tags := func(s listedSet) int { return s.at + setWire }
	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"geometry not the reader's", func(b []byte) []byte { return put32(b, 4+len("t"), 16) }},
		{"unknown policy", func(b []byte) []byte { copy(b[4+len("t")+8+4:], "xyz"); return b }},
		{"set index repeats", func(b []byte) []byte { return put32(b, sets[1].at, uint32(sets[0].set)) }},
		{"set index descends", func(b []byte) []byte {
			s0, s1 := sets[0], sets[1]
			return slices.Concat(b[:s0.at], b[s1.at:s1.end], b[s0.at:s0.end], b[s1.end:])
		}},
		{"set index at Sets", func(b []byte) []byte { return put32(b, sets[3].at, 8) }},
		{"set index at 2^32-1", func(b []byte) []byte { return put32(b, sets[0].at, 1<<32-1) }},
		{"valid bit at Ways", func(b []byte) []byte {
			b = put64(b, sets[3].at+4, 1<<4)
			return slices.Concat(b[:tags(sets[3])], binary.LittleEndian.AppendUint64(nil, 5), b[tags(sets[3]):])
		}},
		{"dirty bit outside valid", func(b []byte) []byte { return put64(b, sets[3].at+12, 1) }},
		{"tag repeats in a set", func(b []byte) []byte { return put64(b, tags(sets[0])+8, uint64(sets[0].tags[0])) }},
		{"listed set untouched", func(b []byte) []byte { clear(b[tags(sets[3]):sets[3].end]); return b }},
		{"window length without a listed set", func(b []byte) []byte {
			b = slices.Concat(b[:sets[0].at], b[stats:])
			return put64(b, sets[0].at-8, 0) // the count; the window length before it stays
		}},
		{"counter out of order", func(b []byte) []byte {
			return slices.Concat(b[:counters], b[counters+12:counters+24], b[counters:counters+12], b[counters+24:])
		}},
		{"counter out of range", func(b []byte) []byte { return put32(b, counters+24, 8) }},
		{"counter zero", func(b []byte) []byte { return put64(b, counters+12+4, 0) }},
	} {
		if _, err := readImage(tc.damage(bytes.Clone(img)), c); err == nil {
			t.Errorf("%s: damaged image decoded", tc.name)
		}
	}
}

package mee

import (
	"errors"
	"math/rand/v2"
	"testing"

	"meecc/internal/dram"
	"meecc/internal/itree"
	"meecc/internal/sim"
	"meecc/internal/wire"
)

// tamperKey is the master key of FuzzTamperDetected's engines.
var tamperKey = [16]byte{3, 1, 4, 1, 5, 9, 2, 6}

// tamperLines are the data-line offsets FuzzTamperDetected reads, writes and
// tampers with, inside a 1 MB protected region. The first ten sit at a 32 KB
// stride: their versions lines share one odd MEE cache set and their PD_Tag
// lines one even set, so both overflow 8 ways and evict. The other six share
// a versions line, an L0 line or an L1 line with them, or sit under another
// L2 line.
var tamperLines = [...]uint64{
	0, 32 << 10, 64 << 10, 96 << 10, 128 << 10, 160 << 10, 192 << 10, 224 << 10, 256 << 10, 288 << 10,
	64, 448, 512, 4096 - 64, 36 << 10, 1<<20 - 64,
}

// tamperRig is one FuzzTamperDetected run: the engine under test and an
// oracle that uses no memo. Its arrays are indexed like tamperLines.
type tamperRig struct {
	cfg   Config
	geom  itree.Geometry
	crypt *itree.Crypto // the oracle's own: plaintext of never-written lines
	mem   *dram.DRAM
	eng   *Engine
	rng   *rand.Rand
	now   sim.Cycles
	// want is each line's last written plaintext; nil if never written.
	want [len(tamperLines)]*[itree.LineSize]byte
	// ctFlipped and tagFlipped mark lines whose ciphertext, or whose PD_Tag
	// in a line that was not resident, was flipped since their last write.
	// A flipped target is not flipped again, which could undo the first.
	ctFlipped, tagFlipped [len(tamperLines)]bool
	// counter is the flipped versions or L0..L2 line; zero when none is.
	counter dram.Addr
}

func newTamperRig(t *testing.T) *tamperRig {
	t.Helper()
	geom, err := itree.NewGeometry(1<<20, 2<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	memCfg := dram.DefaultConfig()
	memCfg.Size = 64 << 20
	rng := rand.New(rand.NewPCG(5, 6))
	r := &tamperRig{cfg: DefaultConfig(), geom: geom, crypt: itree.NewCrypto(tamperKey), mem: dram.New(memCfg), rng: rng}
	r.eng = New(r.cfg, geom, itree.NewCrypto(tamperKey), r.mem)
	return r
}

func (r *tamperRig) addr(i int) dram.Addr { return r.geom.DataBase + dram.Addr(tamperLines[i]) }

// path lists the tree lines a walk for data line addr visits: its versions
// line, then its L0, L1 and L2 lines.
func (r *tamperRig) path(addr dram.Addr) [1 + itree.Levels]dram.Addr {
	idx := r.geom.VersionLineIndex(addr)
	p := [1 + itree.Levels]dram.Addr{r.geom.VersionLineAddr(addr)}
	for l := 0; l < itree.Levels; l++ {
		idx /= itree.CountersPerLine
		p[1+l] = r.geom.LevelLineAddr(l, idx)
	}
	return p
}

// reachesCounter reports whether a walk for addr misses down to the flipped
// counter line: the walk stops at the first resident line on its path.
func (r *tamperRig) reachesCounter(addr dram.Addr) bool {
	if r.counter == 0 {
		return false
	}
	for _, a := range r.path(addr) {
		if r.eng.residentBuf(a) != nil {
			return false
		}
		if a == r.counter {
			return true
		}
	}
	return false
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

func (r *tamperRig) initialized(a dram.Addr) bool {
	word, mask := r.eng.initBit(a)
	return r.eng.initialized[word]&mask != 0
}

// flip xors mask into byte off of the DRAM line at a, behind the engine.
func (r *tamperRig) flip(a dram.Addr, off int, mask byte) {
	raw := r.mem.ReadLine(a)
	raw[off] ^= mask
	r.mem.WriteLine(a, raw)
}

func (r *tamperRig) read(t *testing.T, op, i int) {
	t.Helper()
	addr := r.addr(i)
	fail := r.ctFlipped[i] || r.tagFlipped[i] || r.reachesCounter(addr)
	r.now += 100000
	got, _, _, err := r.eng.ReadData(r.now, r.rng, addr)
	if fail {
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Fatalf("op %d: read of tampered line %d (%#x) returned %v, want an IntegrityError", op, i, addr, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("op %d: read of line %d (%#x): %v", op, i, addr, err)
	}
	want := r.crypt.DecryptLine(addr, 0, [itree.LineSize]byte{})
	if r.want[i] != nil {
		want = *r.want[i]
	}
	if got != want {
		t.Fatalf("op %d: line %d (%#x) read %x, want %x", op, i, addr, got[:8], want[:8])
	}
}

// step runs one three-byte op. The first byte's low four bits pick the
// kind: read (nine values), write (two), FlushCache, Fork, a state round
// trip, or a tamper (two). The second byte's low four bits pick the line;
// the high four bits of both give a tamper its byte offset. The third byte
// is the written value, picks Fork's side, and gives a tamper its target
// (data, PD_Tag, versions, L0, L1, L2) and bit. Once a counter line is
// flipped every op is a read: a write-back through a tampered parent
// panics by design (bumpLevelCounter).
func (r *tamperRig) step(t *testing.T, op int, b [3]byte) {
	t.Helper()
	i := int(b[1]) % len(tamperLines)
	kind := b[0] % 16
	if r.counter != 0 {
		kind = 0
	}
	addr := r.addr(i)
	switch {
	case kind < 9:
		r.read(t, op, i)
	case kind < 11:
		var line [itree.LineSize]byte
		for k := range line {
			line[k] = b[2] ^ byte(k)
		}
		r.now += 100000
		if _, _, err := r.eng.WriteData(r.now, r.rng, addr, line); err != nil {
			t.Fatalf("op %d: write of line %d (%#x): %v", op, i, addr, err)
		}
		r.want[i], r.ctFlipped[i], r.tagFlipped[i] = &line, false, false
	case kind == 11:
		r.now += 100000
		r.eng.FlushCache(r.now, r.rng)
	case kind == 12:
		// The parent keeps running on one side, the fork on the other.
		ms, es := r.mem.Snapshot(), r.eng.Snapshot()
		if b[2]&1 == 0 {
			r.mem = ms.Fork()
			r.eng = es.Fork(r.mem, r.rng)
		}
	case kind == 13:
		var w wire.Writer
		r.mem.Snapshot().AppendImage(&w)
		r.eng.AppendImage(&w)
		rd := wire.NewReader(w.Bytes())
		ms, err := dram.ReadSnapshot(rd, r.mem.Config())
		if err != nil {
			t.Fatal(err)
		}
		es, err := ReadEngine(rd, r.cfg, r.geom, itree.NewCrypto(tamperKey))
		if err != nil {
			t.Fatal(err)
		}
		r.mem = ms.Fork()
		r.eng = es.Fork(r.mem, r.rng)
	default:
		off := int(b[1]>>4 | b[0]>>4<<4)
		mask := byte(1) << (b[2] >> 5)
		switch target := b[2] % 6; target {
		case 0:
			if r.ctFlipped[i] {
				return
			}
			r.flip(addr, off%itree.LineSize, mask)
			r.ctFlipped[i] = true
		case 1:
			ta := r.geom.TagLineAddr(addr)
			if r.tagFlipped[i] || r.eng.residentBuf(ta) != nil || !r.initialized(ta) {
				return // a resident line, or one ensureInit would rewrite, hides the flip
			}
			r.flip(ta, r.geom.TagSlot(addr)*8+off%8, mask)
			r.tagFlipped[i] = true
		default:
			// Flushing first leaves the line not resident and no line
			// dirty, so the reads that follow write nothing back.
			r.now += 100000
			r.eng.FlushCache(r.now, r.rng)
			a := r.path(addr)[target-2]
			if !r.initialized(a) {
				return
			}
			r.flip(a, off%itree.LineSize, mask)
			r.counter = a
		}
	}
}

// tamperScript returns a deterministic random script of n three-byte ops for
// the seed corpus: reads, writes, flushes, forks and round trips, with one
// op in 60 a tamper, so each line is read many times between tampers.
func tamperScript(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 2))
	b := make([]byte, 3*n)
	for op := 0; op < n; op++ {
		kind := byte(rng.IntN(14))
		if rng.IntN(60) == 0 {
			kind = 14
		}
		b[3*op] = kind | byte(rng.IntN(16))<<4
		b[3*op+1] = byte(rng.IntN(256))
		b[3*op+2] = byte(rng.IntN(256))
	}
	return b
}

// FuzzTamperDetected runs random scripts of reads, writes, FlushCache, Fork
// and AppendImage → ReadEngine → Fork round trips over a small set of
// data lines that share tree lines and MEE cache sets, with byte flips in
// DRAM behind the engine: in a data line, in a PD_Tag line that is not
// resident, or in an initialized versions or L0..L2 line that is not
// resident. Each line is read many times before and after a flip, so the
// engine's memos of verified lines are on the path under test. The oracle
// uses no memo: a flipped data line, or a data line whose PD_Tag was
// flipped, fails every read until it is written; a flipped counter line
// fails every walk that misses down to it; every other read returns the
// plaintext last written.
func FuzzTamperDetected(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 0, 0, 9, 0, 7, 0, 0, 0})
	f.Add([]byte{9, 3, 1, 0, 3, 0, 0, 3, 0, 11, 0, 0, 14, 3, 1, 0, 3, 0, 0, 4, 0, 9, 3, 2, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 0, 1, 0, 0, 1, 0, 14, 1, 2, 0, 1, 0, 0, 10, 0, 0, 1, 0})
	f.Add([]byte{9, 5, 9, 0, 5, 0, 0, 5, 0, 12, 0, 0, 0, 5, 0, 14, 5, 4, 0, 5, 0, 0, 12, 0})
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(tamperScript(seed, 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		r := newTamperRig(t)
		// Forks and round trips copy the engine; a cap on the ops keeps
		// inputs the fuzzer has grown long from running for minutes.
		for op := 0; op < 1000 && 3*op+2 < len(script); op++ {
			r.step(t, op, [3]byte(script[3*op:]))
		}
	})
}

package snapstore_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
	"meecc/internal/wire"
)

// buildSnapshot builds warmSnapshot's snapshot of the default machine at
// seed, whose EPC hands frames out in address order.
func buildSnapshot(tb testing.TB, seed uint64) (*platform.Snapshot, platform.ThreadState, sim.Cycles) {
	tb.Helper()
	return warmSnapshot(tb, platform.DefaultConfig(seed))
}

// warmSnapshot boots a platform from cfg, warms it through an enclave thread
// (MEE cache fills, integrity-tree materialization, CPU cache state, COW
// pages), pages one enclave frame out and back in, as fault paging does, so
// the EPC allocator holds a frame Realloc returned, and snapshots at
// quiescence, returning the snapshot plus the thread state and clock needed
// to resume work on a fork.
func warmSnapshot(tb testing.TB, cfg platform.Config) (*platform.Snapshot, platform.ThreadState, sim.Cycles) {
	tb.Helper()
	p := platform.New(cfg)
	pr := p.NewProcess("victim")
	e, err := pr.CreateEnclave(64)
	if err != nil {
		tb.Fatal(err)
	}
	var st platform.ThreadState
	var end sim.Cycles
	p.SpawnThread("warm", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		for i := 0; i < 512; i++ {
			va := e.Base + enclave.VAddr((i*64)%int(e.Size()))
			if i%3 == 0 {
				th.WriteU64(va, uint64(i))
			} else {
				th.Access(va)
			}
		}
		st = th.State()
		end = th.Now()
	})
	p.Run(-1)
	if err := p.Repage(pr, e.Base+enclave.PageBytes, end); err != nil {
		tb.Fatal(err)
	}
	return p.Snapshot(), st, end
}

// traceFork resumes the warmed thread on a fork of snap and records the full
// timing/level/MEE-hit stream of a deterministic probe pattern.
func traceFork(tb testing.TB, snap *platform.Snapshot, st platform.ThreadState, start sim.Cycles) []platform.AccessResult {
	tb.Helper()
	plat := snap.Fork()
	pr := plat.Procs()[0]
	e := pr.Enclave()
	var out []platform.AccessResult
	plat.ResumeThread("probe", pr, start, st, func(th *platform.Thread) {
		for i := 0; i < 768; i++ {
			va := e.Base + enclave.VAddr((i*64*7)%int(e.Size()))
			if i%5 == 0 {
				th.Flush(va)
			}
			out = append(out, th.Access(va))
		}
	})
	plat.Run(-1)
	return out
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 7)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapstore.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The full image must survive the round trip bit for bit, so encoding
	// the decoded snapshot reproduces the original blob byte for byte.
	blob2, err := snapstore.EncodeSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("re-encoding a decoded snapshot changed the blob (%d vs %d bytes)", len(blob), len(blob2))
	}
	// Seal frames a payload exactly as the encoder does.
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapstore.Seal(snapstore.KindSnapshot, payload), blob) {
		t.Fatal("Seal of the unsealed payload differs from the encoded blob")
	}
}

// TestDecodedForkMatchesInMemoryFork is the determinism proof for the wire
// format: a fork of decode(encode(snapshot)) produces exactly the timing
// stream a fork of the in-memory snapshot does, and, under every EPC mode,
// hands out the same EPC frames until the EPC is exhausted. The image
// stores none of the frame order, only the frame Realloc returned, so the
// second half checks the order decode derives from the seed.
func TestDecodedForkMatchesInMemoryFork(t *testing.T) {
	for _, mode := range []enclave.AllocMode{enclave.AllocSequential, enclave.AllocShuffled, enclave.AllocChunked} {
		for _, seed := range []uint64{3, 17} {
			cfg := platform.DefaultConfig(seed)
			cfg.EPCMode = mode
			snap, st, end := warmSnapshot(t, cfg)
			blob, err := snapstore.EncodeSnapshot(snap)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := snapstore.DecodeSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			mem := traceFork(t, snap, st, end)
			disk := traceFork(t, dec, st, end)
			if !reflect.DeepEqual(mem, disk) {
				t.Fatalf("EPC mode %d, seed %d: decoded fork diverged from in-memory fork", mode, seed)
			}
			// Every frame not handed out, then the one Realloc returned.
			payload, m := mapBlob(t, blob)
			freed, next := int(word(payload, m.freed.at)), int(word(payload, m.next))
			left := platform.EPCSize/enclave.PageBytes + freed - next
			memEPC, diskEPC := snap.Fork().EPC(), dec.Fork().EPC()
			for n := 0; ; n++ {
				want, wantErr := memEPC.Alloc(99)
				got, err := diskEPC.Alloc(99)
				if got != want || (err == nil) != (wantErr == nil) {
					t.Fatalf("EPC mode %d, seed %d: allocation %d hands out %#x (err %v) on the decoded fork, %#x (err %v) on the in-memory one",
						mode, seed, n, got, err, want, wantErr)
				}
				if err != nil {
					if n != left {
						t.Fatalf("EPC mode %d, seed %d: EPC exhausted after %d allocations, want %d", mode, seed, n, left)
					}
					break
				}
			}
		}
	}
}

// The fixed sizes of the image's fields the damage rows skip or insert.
const (
	meeBufWire  = 17 * 8 // counters, MAC, tags
	sparseWire  = 4 + 8  // index, value
	setWire     = 4 + 8 + 8
	meeStatWire = 11 * 8 // port clock, then reads, writes, 5 hit levels, write-backs, violations, stall cycles
)

// span is where a counted list sits in an image: the offset of its count
// and the offset just past its last element.
type span struct{ at, end int }

// cacheMap is where one cache image sits, with its header's fields.
type cacheMap struct {
	at, end    int
	sets, ways int
	policy     string
	stride     int
	listed     []setMap
}

// setMap is where one listed set's record sits: its start, its first tag
// and its window. set and valid are its index and valid mask.
type setMap struct {
	at, tags, window, end int
	set                   int
	valid                 uint64
}

// pageMap is where one DRAM page's record and its lines sit.
type pageMap struct {
	at, data     int
	index, lines uint64
}

// imageMap records where the fields the damage rows patch sit in a
// snapshot payload. mapImage finds them by walking the version-7 layout
// that the components' AppendImage methods write (DESIGN.md §9), an
// independent reading of the format.
type imageMap struct {
	cfg      span // the config JSON blob, from its length prefix
	pages    span
	page     []pageMap
	mee      cacheMap
	meeBufs  span
	meeInit  span
	l1, l2   span
	l1Caches []cacheMap
	l2Caches []cacheMap
	llc      cacheMap
	freed    span
	next     int
	owners   span
	gen      span
	pt       span // the first process's page table
}

// mapBlob unseals a snapshot blob and maps its payload.
func mapBlob(t testing.TB, blob []byte) ([]byte, imageMap) {
	t.Helper()
	payload, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	return payload, mapImage(t, payload)
}

func mapImage(t testing.TB, p []byte) imageMap {
	t.Helper()
	r := wire.NewReader(p)
	off := func() int { return len(p) - r.Remaining() }
	counted := func(size int) span {
		at := off()
		r.Raw(r.Count(size) * size)
		return span{at, off()}
	}
	cacheAt := func() cacheMap {
		c := cacheMap{at: off()}
		_ = r.String() // name
		c.sets, c.ways = int(r.U32()), int(r.U32())
		c.policy = r.String()
		c.stride = int(r.U32())
		for i, n := 0, r.Count(setWire+8*c.stride); i < n; i++ {
			s := setMap{at: off()}
			s.set = int(r.U32())
			s.valid = r.U64()
			r.U64() // dirty mask
			s.tags = off()
			r.Raw(8 * bits.OnesCount64(s.valid))
			s.window = off()
			r.Raw(8 * c.stride)
			s.end = off()
			c.listed = append(c.listed, s)
		}
		r.Raw(6 * 8) // statistics
		counted(sparseWire)
		c.end = off()
		return c
	}
	levels := func() (span, []cacheMap) {
		var cs []cacheMap
		at := off()
		for i, n := 0, r.Count(1); i < n; i++ {
			cs = append(cs, cacheAt())
		}
		return span{at, off()}, cs
	}
	var m imageMap
	m.cfg.at = off()
	r.Blob()
	m.cfg.end = off()
	r.Blob() // random stream
	r.I64s() // open rows
	r.I64s() // bank clocks
	m.pages.at = off()
	for i, n := 0, r.Count(16); i < n; i++ {
		pg := pageMap{at: off()}
		pg.index, pg.lines = r.U64(), r.U64()
		pg.data = off()
		r.Raw(dram.LineSize * bits.OnesCount64(pg.lines))
		m.page = append(m.page, pg)
	}
	m.pages.end = off()
	m.mee = cacheAt()
	m.meeBufs = counted(meeBufWire)
	r.U64s() // root counters
	m.meeInit = counted(sparseWire)
	r.Raw(meeStatWire)
	m.l1, m.l1Caches = levels()
	m.l2, m.l2Caches = levels()
	m.llc = cacheAt()
	counted(dram.LineSize) // LLC line buffers
	m.freed = counted(8)
	m.next = off()
	r.I64()
	m.owners = counted(16)
	m.gen = counted(sparseWire)
	if n := r.Count(1); n > 0 {
		_ = r.String() // the first process's name
		r.I64()        // and PID
		m.pt = counted(16)
	}
	if r.Err() != nil {
		t.Fatalf("mapping the image: %v", r.Err())
	}
	return m
}

// word reads the u64 at offset at of p.
func word(p []byte, at int) uint64 { return binary.LittleEndian.Uint64(p[at:]) }

// le64 returns words as they sit on the wire.
func le64(ws ...uint64) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// edit replaces the del bytes at offset at of a payload with ins.
type edit struct {
	at, del int
	ins     []byte
}

func set64(at int, v uint64) edit  { return edit{at, 8, le64(v)} }
func set32(at int, v uint32) edit  { return edit{at, 4, binary.LittleEndian.AppendUint32(nil, v)} }
func insert(at int, b []byte) edit { return edit{at, 0, b} }

// apply returns p with the edits made, each at its offset in p: they are
// made from the last offset back, so no edit moves another's offset.
func apply(p []byte, edits []edit) []byte {
	p = bytes.Clone(p)
	slices.SortStableFunc(edits, func(a, b edit) int { return b.at - a.at })
	for _, e := range edits {
		p = slices.Concat(p[:e.at], e.ins, p[e.at+e.del:])
	}
	return p
}

// grow appends b to the counted list at s.
func grow(p []byte, s span, b []byte) []edit {
	return []edit{set64(s.at, word(p, s.at)+1), insert(s.end, b)}
}

// withConfig replaces the config blob of payload p by edit's change to it.
func withConfig(t testing.TB, p []byte, m imageMap, change func(*platform.Config)) edit {
	t.Helper()
	var cfg platform.Config
	if err := json.Unmarshal(p[m.cfg.at+8:m.cfg.end], &cfg); err != nil {
		t.Fatal(err)
	}
	change(&cfg)
	js, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return edit{m.cfg.at, m.cfg.end - m.cfg.at, append(le64(uint64(len(js))), js...)}
}

func TestDecodeRejectsDamage(t *testing.T) {
	snap, _, _ := buildSnapshot(t, 11)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at assorted depths.
	for _, n := range []int{0, 1, 7, 8, 55, len(blob) / 2, len(blob) - 1} {
		if _, err := snapstore.DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	// Bit flips across the blob, including the framing and the trailer.
	for _, pos := range []int{0, 9, 20, len(blob) / 3, len(blob) / 2, len(blob) - 1} {
		dam := append([]byte(nil), blob...)
		dam[pos] ^= 0x40
		if _, err := snapstore.DecodeSnapshot(dam); err == nil {
			t.Fatalf("bit flip at %d decoded without error", pos)
		}
	}
	// Wrong kind: a warm-state seal must not decode as a snapshot.
	payload, m := mapBlob(t, blob)
	if _, err := snapstore.DecodeSnapshot(snapstore.Seal(snapstore.KindWarm, payload)); err == nil {
		t.Fatal("wrong-kind blob decoded without error")
	}

	// Images that each break one rule of the sparse layout, patched and
	// resealed so that they pass the trailer and reach the decoder. Each
	// rule keeps decode → encode a fixed point.
	if _, err := snapstore.DecodeSnapshot(snapstore.Seal(snapstore.KindSnapshot, apply(payload, nil))); err != nil {
		t.Fatalf("undamaged image: %v", err)
	}
	if len(m.mee.listed) < 2 || word(payload, m.meeInit.at) < 2 || bits.OnesCount64(m.mee.listed[0].valid) < 2 {
		t.Fatalf("fixture lists %d MEE sets, the first with valid mask %#x, and %d init words; want 2 sets, the first with 2 lines, and 2 words",
			len(m.mee.listed), m.mee.listed[0].valid, word(payload, m.meeInit.at))
	}
	if word(payload, m.owners.at) == 0 || word(payload, m.freed.at) == 0 || m.pt == (span{}) {
		t.Fatalf("fixture has %d EPC owners, %d freed EPC frames and no page table; want one of each",
			word(payload, m.owners.at), word(payload, m.freed.at))
	}
	if len(m.l1Caches) != platform.Cores || len(m.l1Caches[0].listed) == 0 || len(m.llc.listed) == 0 {
		t.Fatalf("fixture has %d L1 caches and lists %d L1 sets on core 0 and %d LLC sets; want %d caches and a set of each",
			len(m.l1Caches), len(m.l1Caches[0].listed), len(m.llc.listed), platform.Cores)
	}
	// The frame the next Alloc hands out: no enclave owns it yet.
	nextFrame, err := snap.Fork().EPC().Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	s0, s1 := m.mee.listed[0], m.mee.listed[1]
	l1, llc := m.l1Caches[0].listed[0], m.llc.listed[0]
	owner := payload[m.owners.at+8 : m.owners.at+24]
	top := platform.DefaultConfig(11)
	for _, tc := range []struct {
		name   string
		damage func() []edit
		// rule, for a row that breaks a config rule, is what the error
		// must name: each image is otherwise one the decoder would accept.
		rule string
	}{
		{"set index repeats", func() []edit { return []edit{set32(s1.at, uint32(s0.set))} }, ""},
		{"set index descends", func() []edit {
			return []edit{{s0.at, s1.end - s0.at, slices.Concat(payload[s1.at:s1.end], payload[s0.at:s0.end])}}
		}, ""},
		{"set index at Sets", func() []edit {
			return []edit{set32(m.mee.listed[len(m.mee.listed)-1].at, uint32(m.mee.sets))}
		}, ""},
		{"valid bit at Ways", func() []edit {
			return []edit{set64(s0.at+4, s0.valid|1<<m.mee.ways), insert(s0.window, le64(1))}
		}, ""},
		{"dirty bit outside valid", func() []edit {
			low := s0.valid & -s0.valid
			return []edit{set64(s0.at+4, s0.valid&^low), set64(s0.at+12, word(payload, s0.at+12)|low), {s0.tags, 8, nil}}
		}, ""},
		{"tag repeats in a set", func() []edit { return []edit{set64(s0.tags+8, word(payload, s0.tags))} }, ""},
		{"listed set untouched", func() []edit {
			p, err := cache.PolicyByName(m.mee.policy, rand.New(rand.NewPCG(0, 0)))
			if err != nil {
				t.Fatal(err)
			}
			window := make([]uint64, m.mee.stride)
			p.Init(window)
			return []edit{set64(s0.at+4, 0), set64(s0.at+12, 0), {s0.tags, s0.end - s0.tags, le64(window...)}}
		}, ""},
		{"sparse word out of order", func() []edit {
			at := m.meeInit.at + 8
			return []edit{{at, 2 * sparseWire, slices.Concat(payload[at+sparseWire:at+2*sparseWire], payload[at:at+sparseWire])}}
		}, ""},
		{"sparse word out of range", func() []edit {
			return grow(payload, m.gen, append(binary.LittleEndian.AppendUint32(nil, 1<<32-1), le64(1)...))
		}, ""},
		{"sparse word zero", func() []edit { return []edit{set64(m.meeInit.at+8+4, 0)} }, ""},
		{"page line listed but zero", func() []edit {
			for _, pg := range m.page {
				if pg.lines != 0 {
					return []edit{{pg.data, dram.LineSize, make([]byte, dram.LineSize)}}
				}
			}
			t.Fatal("fixture has no page with a nonzero line")
			return nil
		}, ""},
		// A cache image is the only record of which line each way holds:
		// the MEE buffer list carries one buffer per valid way, and an MEE
		// tag must name a tree line of its set.
		{"MEE buffer missing for a valid way", func() []edit {
			return []edit{set64(m.meeBufs.at, word(payload, m.meeBufs.at)-1), {m.meeBufs.at + 8, meeBufWire, nil}}
		}, ""},
		{"MEE buffer beyond the valid ways", func() []edit {
			return grow(payload, m.meeBufs, make([]byte, meeBufWire))
		}, ""},
		{"MEE tag off its set", func() []edit { return []edit{set64(s0.tags, word(payload, s0.tags)+1)} }, ""},
		{"MEE tag outside the tree", func() []edit {
			return []edit{set64(s0.tags, uint64(s0.set))} // a general-memory line in the same set
		}, ""},
		// A CPU-cache tag sits in the set its line address masks to, and
		// the LLC holds every private line: the one-scan Flush relies on
		// an inclusive LLC.
		{"CPU-cache tag off its set", func() []edit { return []edit{set64(l1.tags, word(payload, l1.tags)+1)} }, ""},
		{"LLC tag off its set", func() []edit { return []edit{set64(llc.tags, word(payload, llc.tags)+1)} }, ""},
		{"private line not in the LLC", func() []edit {
			return []edit{set64(l1.tags, word(payload, l1.tags)+64<<12)} // 16 MB on: the same L1 and LLC sets
		}, ""},
		// Every address the image holds lies where the machine has it, and
		// every freed or owned EPC frame is one the order the seed derives
		// handed out before the cursor.
		{"EPC frame outside the EPC", func() []edit { return grow(payload, m.freed, le64(0x1000)) }, ""},
		{"EPC owner outside the EPC", func() []edit { return []edit{set64(m.owners.at+8, 0x2000)} }, ""},
		{"EPC owner not handed out", func() []edit {
			return grow(payload, m.owners, le64(uint64(nextFrame), word(payload, m.owners.at+16)))
		}, ""},
		{"freed frame not handed out", func() []edit { return grow(payload, m.freed, le64(uint64(nextFrame))) }, ""},
		{"freed frame queued twice", func() []edit {
			return grow(payload, m.freed, le64(word(payload, m.freed.at+8)))
		}, ""},
		{"freed frame queued and owned", func() []edit { return grow(payload, m.freed, owner[:8]) }, ""},
		{"EPC owner repeats", func() []edit { return grow(payload, m.owners, owner) }, ""},
		{"page-table entry past the DRAM", func() []edit {
			va := uint64(enclave.PageBytes)
			if word(payload, m.pt.at) > 0 {
				va += word(payload, m.pt.end-16)
			}
			return grow(payload, m.pt, le64(va, top.DRAM.Size+enclave.PageBytes))
		}, ""},
		// The machine config's rules.
		{"cpu cores not the machine's", func() []edit {
			half := platform.Cores / 2
			return []edit{
				withConfig(t, payload, m, func(c *platform.Config) { c.CPU.Cores = half }),
				set64(m.l1.at, uint64(half)), {m.l1Caches[half].at, m.l1.end - m.l1Caches[half].at, nil},
				set64(m.l2.at, uint64(half)), {m.l2Caches[half].at, m.l2.end - m.l2Caches[half].at, nil},
			}
		}, "cpu cores"},
		{"dram smaller than the PRM", func() []edit {
			size := uint64(platform.PRMSize / 2)
			cut := m.pages.end
			for i := len(m.page) - 1; i >= 0 && m.page[i].index >= size/4096; i-- {
				cut = m.page[i].at
			}
			kept := 0
			for _, pg := range m.page {
				if pg.at < cut {
					kept++
				}
			}
			return []edit{
				withConfig(t, payload, m, func(c *platform.Config) { c.DRAM.Size = size }),
				set64(m.pages.at, uint64(kept)), {cut, m.pages.end - cut, nil},
			}
		}, "below the"},
		{"PRM base not line aligned", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.DRAM.Size -= dram.LineSize / 2 })}
		}, "not line aligned"},
		// The testbed bounds what a config may size: the DRAM's chunk
		// directory and each cache level's per-set words.
		{"dram larger than the testbed's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.DRAM.Size = 1 << 44 })}
		}, "dram size 17592186044416 above the testbed's"},
		{"L1 sets above the testbed's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.CPU.L1Sets = 2 * top.CPU.L1Sets })}
		}, "set counts 128/1024/8192/128 above the testbed's"},
		{"L2 sets above the testbed's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.CPU.L2Sets = 2 * top.CPU.L2Sets })}
		}, "set counts 64/2048/8192/128 above the testbed's"},
		{"LLC sets above the testbed's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.CPU.LLCSets = 2 * top.CPU.LLCSets })}
		}, "set counts 64/1024/16384/128 above the testbed's"},
		{"MEE sets above the testbed's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.MEE.CacheSets = 2 * top.MEE.CacheSets })}
		}, "set counts 64/1024/8192/256 above the testbed's"},
		// Ways and banks are bound by the image instead: its cache
		// geometry and bank state must match them before they size
		// anything.
		{"LLC ways zero", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.CPU.LLCWays = 0 })}
		}, "want 8192x0"},
		{"LLC ways above a cache's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.CPU.LLCWays = 2048 })}
		}, "want 8192x2048"},
		{"dram banks beyond the image's", func() []edit {
			return []edit{withConfig(t, payload, m, func(c *platform.Config) { c.DRAM.Banks = 1 << 40 })}
		}, "bank state lengths 16/16, want 1099511627776"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dam := snapstore.Seal(snapstore.KindSnapshot, apply(payload, tc.damage()))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := snapstore.DecodeSnapshot(dam)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), tc.rule) {
				t.Fatalf("got %v, want an error naming %q", err, tc.rule)
			}
			// A rejected config costs the decoder next to nothing, however
			// large a machine it claims.
			if alloc := after.TotalAlloc - before.TotalAlloc; tc.rule != "" && alloc >= 8<<20 {
				t.Fatalf("decoding allocated %d bytes before rejecting the config", alloc)
			}
		})
	}

	// The seed fixes the EPC's frame order, which the image does not
	// store: under another seed, a shuffled EPC's owners are frames the
	// derived order has not handed out.
	t.Run("shuffled EPC under another seed", func(t *testing.T) {
		cfg := platform.DefaultConfig(11)
		cfg.EPCMode = enclave.AllocShuffled
		shuffled, _, _ := warmSnapshot(t, cfg)
		blob, err := snapstore.EncodeSnapshot(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snapstore.DecodeSnapshot(blob); err != nil {
			t.Fatalf("undamaged image: %v", err)
		}
		payload, m := mapBlob(t, blob)
		reseeded := apply(payload, []edit{withConfig(t, payload, m, func(c *platform.Config) { c.Seed++ })})
		if _, err := snapstore.DecodeSnapshot(snapstore.Seal(snapstore.KindSnapshot, reseeded)); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
}

// TestReaderRejectsOverflowingCounts feeds length prefixes whose byte size
// wraps: 8*(2^61+1) is 8 modulo 2^64, so a bound check that multiplies lets
// the count through to an allocation that panics. Each must come back as
// ErrCorrupt, through the bare Reader and through a sealed snapshot whose
// DRAM open-row count was overwritten.
func TestReaderRejectsOverflowingCounts(t *testing.T) {
	const huge = uint64(1)<<61 + 1
	var w wire.Writer
	w.U64(huge)
	w.U64(0) // one word of payload after the count
	words := w.Bytes()

	snap, _, _ := buildSnapshot(t, 5)
	blob, err := snapstore.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := snapstore.Unseal(snapstore.KindSnapshot, blob)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Clone(sealed)
	// Skip the config and RNG state to reach the DRAM open-row slice's
	// length prefix.
	r := wire.NewReader(payload)
	r.Blob()
	r.Blob()
	at := len(payload) - r.Remaining()
	if got, want := binary.LittleEndian.Uint64(payload[at:]), platform.DefaultConfig(5).DRAM.Banks; r.Err() != nil || got != uint64(want) {
		t.Fatalf("open-row count at offset %d reads %d (err %v), want %d", at, got, r.Err(), want)
	}
	binary.LittleEndian.PutUint64(payload[at:], huge)
	damaged := snapstore.Seal(snapstore.KindSnapshot, payload)

	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"Count", func() error { r := wire.NewReader(words); r.Count(8); return r.Err() }},
		{"U64s", func() error { r := wire.NewReader(words); r.U64s(); return r.Err() }},
		{"I64s", func() error { r := wire.NewReader(words); r.I64s(); return r.Err() }},
		{"DecodeSnapshot", func() error { _, err := snapstore.DecodeSnapshot(damaged); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.decode(); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("got %v, want ErrCorrupt", err)
			}
		})
	}
}

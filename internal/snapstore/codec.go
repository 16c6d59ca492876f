package snapstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"

	"meecc/internal/cache"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/itree"
	"meecc/internal/mee"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// Blob kind labels; Seal/Unseal reject a blob presented as the wrong kind.
const (
	KindSnapshot = "platform-snapshot"
	KindWarm     = "warm-channel-state"
)

// EncodeSnapshot serializes a platform snapshot into a sealed, versioned,
// checksummed blob. The machine Config travels as canonical JSON (it is
// small, extensible, and hashable); the component state uses the packed
// binary layout below it, which carries only what differs from a freshly
// built machine: the cache sets that hold a line or a window of their own,
// the nonzero words of sparse counters and bitmaps, and each materialized
// DRAM page's nonzero lines.
func EncodeSnapshot(s *platform.Snapshot) ([]byte, error) {
	w := NewSealWriter(KindSnapshot)
	if err := AppendSnapshot(w, s); err != nil {
		return nil, err
	}
	return w.Seal(), nil
}

// DecodeSnapshot reverses EncodeSnapshot, validating framing, checksum, and
// every structural invariant before handing back a forkable snapshot.
func DecodeSnapshot(blob []byte) (*platform.Snapshot, error) {
	payload, err := Unseal(KindSnapshot, blob)
	if err != nil {
		return nil, err
	}
	r := NewReader(payload)
	s, err := ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, r.Remaining())
	}
	return s, nil
}

// AppendSnapshot writes a snapshot's full payload into w, so callers
// embedding a snapshot inside a larger blob (core's warm channel state) can
// compose it with their own fields. It grows w once, by a bound on the
// payload, before writing any of it.
func AppendSnapshot(w *Writer, s *platform.Snapshot) error {
	return appendState(w, s.ExportState())
}

// appendState writes the payload of a snapshot image into w.
func appendState(w *Writer, st *platform.SnapshotState) error {
	cfgJSON, err := json.Marshal(st.Cfg)
	if err != nil {
		return fmt.Errorf("snapstore: marshaling config: %w", err)
	}
	w.Grow(len(cfgJSON) + payloadBound(st))
	w.Blob(cfgJSON)
	w.String(st.MEEPolicy)
	w.Raw(st.Master[:])
	w.Blob(st.RNGState)
	writeDRAM(w, st.Mem)
	writeMEE(w, st.MEE)
	writeCPU(w, st.Caches)
	writeEPC(w, st.EPC)
	writeWords(w, st.GenUsed)
	w.U64(uint64(len(st.Procs)))
	for _, p := range st.Procs {
		writeProc(w, p)
	}
	w.I64(int64(st.NextEID))
	w.I64(int64(st.NextPID))
	return nil
}

// ReadSnapshot decodes a snapshot payload from r (the inverse of
// AppendSnapshot), rebuilding a forkable platform snapshot.
func ReadSnapshot(r *Reader) (*platform.Snapshot, error) {
	st := &platform.SnapshotState{}
	cfgJSON := r.Blob()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(cfgJSON, &st.Cfg); err != nil {
		return nil, fmt.Errorf("%w: config: %v", ErrCorrupt, err)
	}
	st.MEEPolicy = r.String()
	copy(st.Master[:], r.Raw(16))
	st.RNGState = append([]byte(nil), r.Blob()...)
	st.Mem = readDRAM(r, st.Cfg.DRAM)
	st.MEE = readMEE(r)
	st.Caches = readCPU(r)
	st.EPC = readEPC(r)
	st.GenUsed = readWords(r)
	nProcs := r.Count(1)
	for i := 0; i < nProcs && r.Err() == nil; i++ {
		st.Procs = append(st.Procs, readProc(r))
	}
	st.NextEID = int(r.I64())
	st.NextPID = int(r.I64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	s, err := platform.SnapshotFromState(st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// fixedBound covers a component's fixed-size fields — statistics, scalar
// state and length prefixes — in payloadBound. The MEE engine has the
// most: 112 bytes.
const fixedBound = 256

// payloadBound bounds from above the bytes appendState writes for st, apart
// from the config JSON: every variable-length table at its exact wire
// size — listed cache sets with their valid tags and windows, sparse
// words, DRAM pages with their nonzero lines, node and line buffers, the
// EPC frame list — and each component's fixed fields within fixedBound.
func payloadBound(st *platform.SnapshotState) int {
	n := fixedBound + len(st.MEEPolicy) + len(st.RNGState) + wordWire*len(st.GenUsed)
	m := st.Mem
	n += fixedBound + 8*(len(m.OpenRow)+len(m.BanksBusy))
	for _, p := range m.Pages {
		n += pageWire + len(p.Data)
	}
	n += fixedBound + cacheBound(st.MEE.Cache) + len(st.MEE.Bufs)*meeBufWire + 8*len(st.MEE.Root) + wordWire*len(st.MEE.Initialized)
	for _, c := range st.Caches.L1 {
		n += cacheBound(c)
	}
	for _, c := range st.Caches.L2 {
		n += cacheBound(c)
	}
	n += fixedBound + cacheBound(st.Caches.LLC) + len(st.Caches.Bufs)*cpuBufWire
	n += fixedBound + 8*len(st.EPC.Frames) + 16*len(st.EPC.Owners)
	for _, p := range st.Procs {
		n += fixedBound + len(p.Name) + 16*len(p.PT)
	}
	return n
}

// cacheBound bounds writeCache's output for st.
func cacheBound(st *cache.State) int {
	n := fixedBound + len(st.Name) + len(st.PolicyName) + wordWire*len(st.EvBySet)
	for _, ss := range st.Listed {
		n += setWire + 8*(len(ss.Tags)+len(ss.Window))
	}
	return n
}

// ---------------------------------------------------------------------------
// Sparse words

// wordWire is one cache.Word on the wire: u32 index, u64 value.
const wordWire = 4 + 8

func writeWords(w *Writer, ws []cache.Word) {
	w.U64(uint64(len(ws)))
	for _, x := range ws {
		w.U32(uint32(x.Index))
		w.U64(x.Value)
	}
}

func readWords(r *Reader) []cache.Word {
	ws := make([]cache.Word, r.Count(wordWire))
	for i := range ws {
		ws[i] = cache.Word{Index: int(r.U32()), Value: r.U64()}
	}
	return ws
}

// ---------------------------------------------------------------------------
// DRAM

// pageWire is a page's fixed fields on the wire: index and line mask; the
// lines the mask marks follow.
const pageWire = 8 + 8

func writeDRAM(w *Writer, st *dram.SnapshotState) {
	w.I64(int64(st.Allocated))
	w.I64s(st.OpenRow)
	w.U64(uint64(len(st.BanksBusy)))
	for _, b := range st.BanksBusy {
		w.I64(int64(b))
	}
	w.U64(uint64(len(st.Pages)))
	for _, p := range st.Pages {
		w.U64(p.Index)
		w.U64(p.Lines)
		w.Raw(p.Data)
	}
}

func readDRAM(r *Reader, cfg dram.Config) *dram.SnapshotState {
	st := &dram.SnapshotState{Cfg: cfg}
	st.Allocated = int(r.I64())
	st.OpenRow = r.I64s()
	nb := r.Count(8)
	st.BanksBusy = make([]sim.Cycles, nb)
	for i := range st.BanksBusy {
		st.BanksBusy[i] = sim.Cycles(r.I64())
	}
	nPages := r.Count(pageWire)
	st.Pages = make([]dram.PageImage, 0, nPages)
	for i := 0; i < nPages && r.Err() == nil; i++ {
		p := dram.PageImage{Index: r.U64(), Lines: r.U64()}
		// The lines alias the payload; SnapshotFromState copies them into
		// the page it materializes.
		p.Data = r.Raw(bits.OnesCount64(p.Lines) * dram.LineSize)
		st.Pages = append(st.Pages, p)
	}
	return st
}

// ---------------------------------------------------------------------------
// Generic cache level

// setWire is a listed set's fixed fields on the wire: set index, valid and
// dirty masks. The valid ways' tags follow, one word per bit of the valid
// mask, then the set's window, as many words as the cache's window length.
const setWire = 4 + 8 + 8

func writeCache(w *Writer, st *cache.State) {
	w.String(st.Name)
	w.U32(uint32(st.Sets))
	w.U32(uint32(st.Ways))
	w.String(st.PolicyName)
	stride := 0
	if len(st.Listed) > 0 {
		stride = len(st.Listed[0].Window)
	}
	w.U32(uint32(stride))
	w.U64(uint64(len(st.Listed)))
	for _, ss := range st.Listed {
		w.U32(uint32(ss.Set))
		w.U64(ss.Valid)
		w.U64(ss.Dirty)
		for _, t := range ss.Tags {
			w.U64(uint64(t))
		}
		for _, x := range ss.Window {
			w.U64(x)
		}
	}
	w.U64(st.Stats.Hits)
	w.U64(st.Stats.Misses)
	w.U64(st.Stats.Fills)
	w.U64(st.Stats.Evictions)
	w.U64(st.Stats.WritebacksOut)
	w.U64(st.Stats.Invalidations)
	writeWords(w, st.EvBySet)
}

func readCache(r *Reader) *cache.State {
	st := &cache.State{}
	st.Name = r.String()
	st.Sets = int(r.U32())
	st.Ways = int(r.U32())
	st.PolicyName = r.String()
	stride := int(r.U32())
	n := r.Count(setWire + 8*stride)
	st.Listed = make([]cache.SetState, n)
	windows := make([]uint64, n*stride)
	for i := 0; i < n && r.Err() == nil; i++ {
		ss := &st.Listed[i]
		ss.Set = int(r.U32())
		ss.Valid = r.U64()
		ss.Dirty = r.U64()
		if raw := r.Raw(8 * bits.OnesCount64(ss.Valid)); len(raw) > 0 {
			ss.Tags = make([]cache.Tag, len(raw)/8)
			for j := range ss.Tags {
				ss.Tags[j] = cache.Tag(binary.LittleEndian.Uint64(raw[8*j:]))
			}
		}
		ss.Window = windows[i*stride : (i+1)*stride : (i+1)*stride]
		for j := range ss.Window {
			ss.Window[j] = r.U64()
		}
	}
	st.Stats.Hits = r.U64()
	st.Stats.Misses = r.U64()
	st.Stats.Fills = r.U64()
	st.Stats.Evictions = r.U64()
	st.Stats.WritebacksOut = r.U64()
	st.Stats.Invalidations = r.U64()
	st.EvBySet = readWords(r)
	return st
}

// ---------------------------------------------------------------------------
// MEE engine

func writeMEE(w *Writer, st *mee.State) {
	writeCache(w, st.Cache)
	w.U64(uint64(len(st.Bufs)))
	for _, b := range st.Bufs {
		w.U32(uint32(b.Idx))
		w.U64(uint64(b.Addr))
		w.U8(uint8(b.Kind))
		for _, c := range b.Counter.Counters {
			w.U64(c)
		}
		w.U64(b.Counter.MAC)
		for _, t := range b.Tags.Tags {
			w.U64(t)
		}
		w.Bool(b.Dirty)
	}
	w.U64s(st.Root)
	writeWords(w, st.Initialized)
	w.I64(int64(st.PortBusy))
	w.U64(st.Stats.Reads)
	w.U64(st.Stats.Writes)
	for _, h := range st.Stats.HitsAt {
		w.U64(h)
	}
	w.U64(st.Stats.Writebacks)
	w.U64(st.Stats.Violations)
	w.I64(int64(st.Stats.StallCyc))
}

const meeBufWire = 4 + 8 + 1 + (itree.CountersPerLine+1)*8 + itree.CountersPerLine*8 + 1

func readMEE(r *Reader) *mee.State {
	st := &mee.State{Cache: readCache(r)}
	nBufs := r.Count(meeBufWire)
	st.Bufs = make([]mee.BufState, 0, nBufs)
	for i := 0; i < nBufs && r.Err() == nil; i++ {
		b := mee.BufState{
			Idx:  int(r.U32()),
			Addr: dram.Addr(r.U64()),
			Kind: itree.NodeKind(r.U8()),
		}
		for j := range b.Counter.Counters {
			b.Counter.Counters[j] = r.U64()
		}
		b.Counter.MAC = r.U64()
		for j := range b.Tags.Tags {
			b.Tags.Tags[j] = r.U64()
		}
		b.Dirty = r.Bool()
		st.Bufs = append(st.Bufs, b)
	}
	st.Root = r.U64s()
	st.Initialized = readWords(r)
	st.PortBusy = sim.Cycles(r.I64())
	st.Stats.Reads = r.U64()
	st.Stats.Writes = r.U64()
	for i := range st.Stats.HitsAt {
		st.Stats.HitsAt[i] = r.U64()
	}
	st.Stats.Writebacks = r.U64()
	st.Stats.Violations = r.U64()
	st.Stats.StallCyc = sim.Cycles(r.I64())
	return st
}

// ---------------------------------------------------------------------------
// CPU cache hierarchy

// cpuBufWire is one LLC line buffer on the wire: index, data, dirty.
const cpuBufWire = 4 + dram.LineSize + 1

func writeCPU(w *Writer, st *cpucache.State) {
	w.U64(uint64(len(st.L1)))
	for _, c := range st.L1 {
		writeCache(w, c)
	}
	w.U64(uint64(len(st.L2)))
	for _, c := range st.L2 {
		writeCache(w, c)
	}
	writeCache(w, st.LLC)
	w.U64(uint64(len(st.Bufs)))
	for _, b := range st.Bufs {
		w.U32(uint32(b.Idx))
		w.Raw(b.Data[:])
		w.Bool(b.Dirty)
	}
}

func readCPU(r *Reader) *cpucache.State {
	st := &cpucache.State{}
	n1 := r.Count(1)
	for i := 0; i < n1 && r.Err() == nil; i++ {
		st.L1 = append(st.L1, readCache(r))
	}
	n2 := r.Count(1)
	for i := 0; i < n2 && r.Err() == nil; i++ {
		st.L2 = append(st.L2, readCache(r))
	}
	st.LLC = readCache(r)
	nBufs := r.Count(cpuBufWire)
	st.Bufs = make([]cpucache.LineBufState, 0, nBufs)
	for i := 0; i < nBufs && r.Err() == nil; i++ {
		b := cpucache.LineBufState{Idx: int(r.U32())}
		copy(b.Data[:], r.Raw(dram.LineSize))
		b.Dirty = r.Bool()
		st.Bufs = append(st.Bufs, b)
	}
	return st
}

// ---------------------------------------------------------------------------
// EPC allocator and processes

func writeEPC(w *Writer, st *enclave.EPCState) {
	w.U64(uint64(len(st.Frames)))
	for _, f := range st.Frames {
		w.U64(uint64(f))
	}
	w.I64(int64(st.Next))
	w.U64(uint64(len(st.Owners)))
	for _, o := range st.Owners {
		w.U64(uint64(o.Frame))
		w.I64(int64(o.EID))
	}
}

func readEPC(r *Reader) *enclave.EPCState {
	st := &enclave.EPCState{}
	// The frame list is over half of a warm state's payload: decode it
	// from one read rather than word by word.
	nf := r.Count(8)
	raw := r.Raw(8 * nf)
	st.Frames = make([]dram.Addr, nf)
	for i := range st.Frames {
		st.Frames[i] = dram.Addr(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	st.Next = int(r.I64())
	no := r.Count(16)
	st.Owners = make([]enclave.OwnerEntry, 0, no)
	for i := 0; i < no && r.Err() == nil; i++ {
		st.Owners = append(st.Owners, enclave.OwnerEntry{
			Frame: dram.Addr(r.U64()),
			EID:   int(r.I64()),
		})
	}
	return st
}

func writeProc(w *Writer, p platform.ProcState) {
	w.String(p.Name)
	w.I64(int64(p.PID))
	w.U64(uint64(len(p.PT)))
	for _, e := range p.PT {
		w.U64(uint64(e.VA))
		w.U64(uint64(e.PA))
	}
	w.U64(uint64(p.HeapNext))
	w.U64(uint64(p.EnclNext))
	w.Bool(p.Encl != nil)
	if p.Encl != nil {
		w.I64(int64(p.Encl.ID))
		w.U64(uint64(p.Encl.Base))
		w.I64(int64(p.Encl.Pages))
	}
}

func readProc(r *Reader) platform.ProcState {
	p := platform.ProcState{}
	p.Name = r.String()
	p.PID = int(r.I64())
	nPT := r.Count(16)
	p.PT = make([]enclave.PTE, 0, nPT)
	for i := 0; i < nPT && r.Err() == nil; i++ {
		p.PT = append(p.PT, enclave.PTE{VA: enclave.VAddr(r.U64()), PA: dram.Addr(r.U64())})
	}
	p.HeapNext = enclave.VAddr(r.U64())
	p.EnclNext = enclave.VAddr(r.U64())
	if r.Bool() {
		p.Encl = &enclave.Enclave{
			ID:    int(r.I64()),
			Base:  enclave.VAddr(r.U64()),
			Pages: int(r.I64()),
		}
	}
	return p
}

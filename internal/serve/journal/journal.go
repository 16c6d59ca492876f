// Package journal is the serve service's write-ahead log: an append-only
// file of length-framed, CRC-protected records (snapstore.AppendFrame) that
// makes submitted runs and completed trials durable across process death.
// Every record is written with a single write syscall, so a SIGKILL tears at
// most the final record; Open replays the intact prefix, truncates the torn
// tail away, and hands the caller everything that committed. Replaying the
// journal rebuilds the service's trial memo table exactly — metrics are
// stored as raw float bits and snapshots as their canonical JSON — so a
// resumed run re-executes only the trials that never committed and still
// produces a byte-identical artifact.
package journal

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"meecc/internal/obs/ops"
	"meecc/internal/snapstore"
	"meecc/internal/wire"
)

// magic opens every journal file.
const magic = "MEECWAL\x00"

// Version is the record-format version; bump on any layout change.
const Version = 1

// Kind discriminates journal record types.
type Kind uint8

const (
	// KindRun records an admitted spec: the run id, the spec's content hash,
	// and the raw spec JSON (so an interrupted run is resumable by content,
	// not by reference to in-memory state).
	KindRun Kind = iota + 1
	// KindTrial commits one executed trial's result under its memo key.
	KindTrial
	// KindEnd marks a run terminal: done (with the artifact bytes), failed,
	// or cancelled. Runs with no KindEnd record are resumable after replay.
	KindEnd
	// KindCheckpoint marks a clean shutdown: every record before it was
	// written by an orderly drain, none by a crash.
	KindCheckpoint
)

// Record is one journal entry; which fields are meaningful depends on Kind.
type Record struct {
	Kind Kind

	// KindRun / KindEnd
	RunID    string
	SpecHash string
	Spec     []byte

	// KindTrial
	Key      string
	Metrics  map[string]float64
	Obs      []byte // canonical snapshot JSON, empty when the trial had none
	TrialErr string // non-empty iff the trial failed

	// KindEnd
	Outcome  string // "done", "failed", or "cancelled"
	ErrMsg   string
	Artifact []byte // the run's artifact bytes ("done", and partial "cancelled")
}

// Encode renders the record as a wire payload (frame it with
// snapstore.AppendFrame for storage).
func Encode(rec Record) []byte {
	var w wire.Writer
	w.U8(Version)
	w.U8(uint8(rec.Kind))
	w.String(rec.RunID)
	w.String(rec.SpecHash)
	w.Blob(rec.Spec)
	w.String(rec.Key)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.String(name)
		w.U64(math.Float64bits(rec.Metrics[name]))
	}
	w.Blob(rec.Obs)
	w.String(rec.TrialErr)
	w.String(rec.Outcome)
	w.String(rec.ErrMsg)
	w.Blob(rec.Artifact)
	return w.Bytes()
}

// Decode parses a payload produced by Encode. Damaged or version-skewed
// payloads come back as errors, never panics.
func Decode(payload []byte) (Record, error) {
	r := wire.NewReader(payload)
	if v := r.U8(); r.Err() == nil && v != Version {
		return Record{}, fmt.Errorf("journal: record version %d, want %d", v, Version)
	}
	rec := Record{Kind: Kind(r.U8())}
	rec.RunID = r.String()
	rec.SpecHash = r.String()
	rec.Spec = cloned(r.Blob())
	rec.Key = r.String()
	if n := int(r.U32()); r.Err() == nil && n > 0 {
		if n > r.Remaining() { // each metric is >= 1 byte on the wire
			return Record{}, fmt.Errorf("journal: metric count %d exceeds payload", n)
		}
		rec.Metrics = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			name := r.String()
			rec.Metrics[name] = math.Float64frombits(r.U64())
		}
	}
	rec.Obs = cloned(r.Blob())
	rec.TrialErr = r.String()
	rec.Outcome = r.String()
	rec.ErrMsg = r.String()
	rec.Artifact = cloned(r.Blob())
	if err := r.Err(); err != nil {
		return Record{}, err
	}
	if rec.Kind < KindRun || rec.Kind > KindCheckpoint {
		return Record{}, fmt.Errorf("journal: unknown record kind %d", rec.Kind)
	}
	if r.Remaining() != 0 {
		return Record{}, fmt.Errorf("journal: %d trailing bytes in record", r.Remaining())
	}
	return rec, nil
}

// cloned copies a reader's aliasing slice so records outlive the replay
// buffer; empty blobs stay nil.
func cloned(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Replay decodes records from a frame stream (the journal file minus its
// magic), stopping cleanly at the first torn, corrupt, or undecodable frame.
// It returns the intact records and how many bytes they occupy — the offset
// a self-healing reopen truncates to. Replay never fails: damage just ends
// the replay early.
func Replay(data []byte) (recs []Record, consumed int) {
	rest := data
	for len(rest) > 0 {
		payload, next, err := snapstore.NextFrame(rest)
		if err != nil {
			break
		}
		rec, err := Decode(payload)
		if err != nil {
			break
		}
		recs = append(recs, rec)
		consumed = len(data) - len(next)
		rest = next
	}
	return recs, consumed
}

// Journal is an open write-ahead log. Appends are serialized and each lands
// as one write syscall; safe for concurrent use.
type Journal struct {
	path string

	mu sync.Mutex
	f  *os.File

	// healedBytes is how many torn-tail bytes Open truncated away; replayed
	// is how many intact records it handed back. Both are fixed at Open.
	healedBytes int64
	replayed    int

	// Wall-clock telemetry; nil-safe when SetOps was never called.
	appends       *ops.Counter
	appendErrors  *ops.Counter
	appendSeconds *ops.Histogram
	fsyncSeconds  *ops.Histogram
}

// HealedBytes reports how many bytes of torn tail Open truncated away (zero
// for a clean open).
func (j *Journal) HealedBytes() int64 { return j.healedBytes }

// Replayed reports how many intact records Open replayed.
func (j *Journal) Replayed() int { return j.replayed }

// SetOps registers the journal's wall-clock metrics on reg (nil-safe):
// append/fsync latency, append error count, replay/recovery counters fixed at
// Open, and the live file size.
func (j *Journal) SetOps(reg *ops.Registry) {
	j.appends = reg.Counter("meecc_journal_appends_total", "Records appended to the write-ahead journal.")
	j.appendErrors = reg.Counter("meecc_journal_append_errors_total", "Journal appends that failed.")
	j.appendSeconds = reg.Histogram("meecc_journal_append_seconds", "Wall time of journal record appends.", nil)
	j.fsyncSeconds = reg.Histogram("meecc_journal_fsync_seconds", "Wall time of journal fsyncs.", nil)
	reg.Counter("meecc_journal_replayed_records_total", "Intact records replayed at journal open.").Add(uint64(j.replayed))
	if j.healedBytes > 0 {
		reg.Counter("meecc_journal_torn_tail_recoveries_total", "Torn tails truncated at journal open.").Inc()
	} else {
		reg.Counter("meecc_journal_torn_tail_recoveries_total", "Torn tails truncated at journal open.")
	}
	reg.GaugeFunc("meecc_journal_size_bytes", "Current journal file size.", func() float64 {
		info, err := os.Stat(j.path)
		if err != nil {
			return 0
		}
		return float64(info.Size())
	})
}

// Open opens (creating if needed) the journal at path, replays every intact
// record, truncates any torn tail so the file ends on a record boundary, and
// returns the journal positioned for append plus the replayed records.
// A file that is not a journal at all (wrong magic) is an error — that is an
// operator mistake, not corruption to silently destroy.
func Open(path string) (*Journal, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if len(data) >= len(magic) && string(data[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}
	if len(data) < len(magic) && string(data) != magic[:len(data)] {
		return nil, nil, fmt.Errorf("journal: %s is not a journal (bad magic)", path)
	}

	var recs []Record
	valid := 0
	if len(data) >= len(magic) {
		var consumed int
		recs, consumed = Replay(data[len(magic):])
		valid = len(magic) + consumed
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	if valid == 0 {
		// Fresh file, or one torn inside the magic itself: restart it.
		if err := f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(magic), 0)
		}
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: initializing %s: %w", path, err)
		}
		valid = len(magic)
	} else if valid < len(data) {
		// Torn tail: drop it so the next append starts on a record boundary.
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: healing %s: %w", path, err)
		}
		j.healedBytes = int64(len(data) - valid)
	}
	j.replayed = len(recs)
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return j, recs, nil
}

// Append encodes and writes one record as a single frame. The write is one
// syscall, so a crash tears at most this record — never an earlier one.
func (j *Journal) Append(rec Record) error {
	frame := snapstore.AppendFrame(nil, Encode(rec))
	start := time.Now()
	defer j.appendSeconds.ObserveSince(start)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		j.appendErrors.Inc()
		return fmt.Errorf("journal: %s is closed", j.path)
	}
	if _, err := j.f.Write(frame); err != nil {
		j.appendErrors.Inc()
		return fmt.Errorf("journal: appending to %s: %w", j.path, err)
	}
	j.appends.Inc()
	return nil
}

// Sync flushes the journal to stable storage — called at clean-shutdown
// checkpoints; per-record appends rely on the page cache surviving process
// death, which is all a SIGKILL threatens.
func (j *Journal) Sync() error {
	start := time.Now()
	defer j.fsyncSeconds.ObserveSince(start)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close closes the journal file; further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

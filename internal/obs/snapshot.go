package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SnapshotSchemaVersion identifies the snapshot JSON layout. Bump on any
// incompatible change; golden-schema tests pin the current version.
const SnapshotSchemaVersion = 2

// HistBucket is one populated power-of-two bucket: values in [Lo, Hi].
type HistBucket struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is the serialized state of one histogram. Only populated
// buckets are listed, in ascending order.
type HistogramSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time capture of an observer. Encoding is canonical:
// encoding/json sorts map keys, so two snapshots with equal contents encode
// to identical bytes regardless of registration order, worker count, or
// scheduler. Zero-valued instruments are omitted, which keeps artifacts
// from runs that never touched a subsystem small and stable.
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]uint64            `json:"counters,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`

	// canon caches the canonical indented encoding, set the first time the
	// snapshot is encoded (or adopted from the wire by DecodeSnapshot).
	// Re-encoding a committed snapshot — memo replay, artifact assembly —
	// then splices bytes instead of re-sorting and re-marshalling the maps.
	// Mutators must clear it.
	canon []byte
}

// NewSnapshot returns an empty snapshot at the current schema version.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Counters:      make(map[string]uint64),
		Histograms:    make(map[string]HistogramSnapshot),
	}
}

// snapshotFields strips Snapshot's methods so the encoder below can fall
// back to the plain struct encoding without recursing into MarshalJSON.
type snapshotFields Snapshot

// MarshalJSON embeds the snapshot in enclosing documents (artifacts). With
// the canonical bytes cached it compacts them instead of re-marshalling the
// maps; the output is byte-identical either way (encoding/json sorts map
// keys and escapes identically in both forms).
func (s *Snapshot) MarshalJSON() ([]byte, error) {
	if s.canon == nil {
		return json.Marshal((*snapshotFields)(s))
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, s.canon); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Encode renders the snapshot as canonical indented JSON with a trailing
// newline, caching the bytes on the snapshot so later encodes are a slice
// return. Returns nil for a nil snapshot.
func (s *Snapshot) Encode() []byte {
	if s == nil {
		return nil
	}
	if s.canon == nil {
		data, err := json.MarshalIndent((*snapshotFields)(s), "", "  ")
		if err != nil {
			// Snapshot contains only maps of scalars; Marshal cannot fail.
			panic(err)
		}
		s.canon = append(data, '\n')
	}
	return s.canon
}

// DecodeSnapshot parses a snapshot produced by Encode and validates its
// schema version. The input is adopted as the decoded snapshot's cached
// canonical form — Encode's output is the only wire format, so replaying a
// committed snapshot (journal recovery, memo hits) does no JSON work.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.SchemaVersion != SnapshotSchemaVersion {
		return nil, fmt.Errorf("snapshot schema version %d, want %d", s.SchemaVersion, SnapshotSchemaVersion)
	}
	s.canon = append([]byte(nil), data...)
	return &s, nil
}

// Merge copies every instrument of other into s under prefix+name,
// overwriting on collision. Used to combine per-arm snapshots (chaos static
// vs. adaptive) into one artifact block. No-op when s or other is nil.
func (s *Snapshot) Merge(prefix string, other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	s.canon = nil // contents change; drop the cached encoding
	for name, v := range other.Counters {
		s.Counters[prefix+name] = v
	}
	for name, h := range other.Histograms {
		s.Histograms[prefix+name] = h
	}
}

// Render writes a human-readable text report: counters sorted by name, then
// histograms with count/mean/min/max and a bucket breakdown. When the sim
// utilization inputs are present (sim.busy_cycles and sim.clock) a derived
// utilization line is included.
func (s *Snapshot) Render(w io.Writer) {
	if s == nil {
		fmt.Fprintln(w, "(no metrics collected)")
		return
	}
	if len(s.Counters) == 0 && len(s.Histograms) == 0 {
		fmt.Fprintln(w, "(no metrics collected)")
		return
	}
	names := make([]string, 0, len(s.Counters))
	width := 0
	for name := range s.Counters {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-*s %12d\n", width, name, s.Counters[name])
	}
	if busy, ok := s.Counters["sim.busy_cycles"]; ok {
		if clock := s.Counters["sim.clock"]; clock > 0 {
			fmt.Fprintf(w, "%-*s %11.1f%%\n", width, "sim.utilization",
				100*float64(busy)/float64(clock))
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		mean := float64(h.Sum) / float64(h.Count)
		fmt.Fprintf(w, "\n%s: count=%d mean=%.1f min=%d max=%d\n", name, h.Count, mean, h.Min, h.Max)
		for _, b := range h.Buckets {
			fmt.Fprintf(w, "  [%8d, %8d] %10d\n", b.Lo, b.Hi, b.Count)
		}
	}
}

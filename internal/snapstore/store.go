package snapstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"meecc/internal/obs/ops"
)

// ErrNotFound reports a key with no blob in the store.
var ErrNotFound = errors.New("snapstore: not found")

// blobExt suffixes every stored blob file.
const blobExt = ".snap"

// Key derives a content-address from identity parts (machine config, seed,
// warm-up recipe, ...): the hex SHA-256 of the length-delimited parts.
// Length delimiting keeps distinct part vectors from colliding by
// concatenation.
func Key(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a content-addressed blob store rooted at one directory: one file
// per key, written atomically (temp file + rename), evicted
// least-recently-used by file modification time when the configured size
// bound is exceeded, and checksum-verified on every load. Safe for
// concurrent use within a process; cross-process coordination is by the
// atomicity of rename alone, which is all the append-mostly workload needs.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded
	mu       sync.Mutex

	// Wall-clock telemetry; all nil-safe, so an uninstrumented store pays
	// only nil checks.
	log           *ops.Logger
	puts          *ops.Counter
	putBytes      *ops.Counter
	gets          *ops.Counter
	getMisses     *ops.Counter
	selfHeals     *ops.Counter
	evictions     *ops.Counter
	evictionBytes *ops.Counter
	putSeconds    *ops.Histogram
	getSeconds    *ops.Histogram
}

// Open creates (if needed) and opens a store rooted at dir. maxBytes bounds
// the total size of stored blobs; zero or negative disables eviction. Open
// deletes every blob file that is not a sealed blob of the current format
// Version: no decoder reads one, and no size bound would otherwise reclaim
// it from an unbounded store.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	// s is not shared yet, so listing its blobs needs no lock.
	for _, e := range s.entriesLocked() {
		if !currentVersion(e.path) {
			os.Remove(e.path)
		}
	}
	return s, nil
}

// currentVersion reports whether the file at path opens with the magic and
// the current format version, the first 12 bytes of every blob Seal
// frames. A file it cannot open is given the benefit of the doubt.
func currentVersion(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	var hdr [len(magic) + 4]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false
	}
	return string(hdr[:len(magic)]) == magic && binary.LittleEndian.Uint32(hdr[len(magic):]) == Version
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetOps registers the store's wall-clock metrics on reg and its structured
// logs on log. Either may be nil. Operational only: nothing recorded here
// flows into artifacts.
func (s *Store) SetOps(reg *ops.Registry, log *ops.Logger) {
	s.log = log
	s.puts = reg.Counter("meecc_snapstore_puts_total", "Blobs written to the snapshot store.")
	s.putBytes = reg.Counter("meecc_snapstore_put_bytes_total", "Bytes written to the snapshot store.")
	s.gets = reg.Counter("meecc_snapstore_gets_total", "Blob loads attempted from the snapshot store.")
	s.getMisses = reg.Counter("meecc_snapstore_get_misses_total", "Blob loads that found no stored blob.")
	s.selfHeals = reg.Counter("meecc_snapstore_selfheal_deletions_total", "Corrupt blobs deleted by Get self-healing.")
	s.evictions = reg.Counter("meecc_snapstore_evictions_total", "Blobs evicted to stay under the size bound.")
	s.evictionBytes = reg.Counter("meecc_snapstore_eviction_bytes_total", "Bytes reclaimed by LRU eviction.")
	s.putSeconds = reg.Histogram("meecc_snapstore_put_seconds", "Wall time of snapshot store writes.", nil)
	s.getSeconds = reg.Histogram("meecc_snapstore_get_seconds", "Wall time of snapshot store loads.", nil)
	reg.GaugeFunc("meecc_snapstore_bytes", "Total bytes currently stored.", func() float64 { return float64(s.Bytes()) })
	reg.GaugeFunc("meecc_snapstore_blobs", "Blobs currently stored.", func() float64 { return float64(s.Len()) })
}

func (s *Store) path(key string) (string, error) {
	if len(key) != 2*sha256.Size {
		return "", fmt.Errorf("snapstore: malformed key %q", key)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", fmt.Errorf("snapstore: malformed key %q", key)
	}
	return filepath.Join(s.dir, key+blobExt), nil
}

// Put stores blob under key, atomically: the bytes land in a temp file that
// is renamed into place, so readers never observe a partial blob. After the
// write, the store evicts least-recently-used blobs until back under the
// size bound (the just-written blob is exempt from its own eviction round).
func (s *Store) Put(key string, blob []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	start := time.Now()
	defer s.putSeconds.ObserveSince(start)
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapstore: writing %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapstore: %w", err)
	}
	s.puts.Inc()
	s.putBytes.Add(uint64(len(blob)))
	s.evictLocked(key)
	return nil
}

// Get loads the blob stored under key and freshens its LRU position. A
// missing blob returns ErrNotFound. Framing and checksum verification are
// the caller's (Unseal's) job — the store returns raw bytes — but a blob
// too short to even carry a seal is deleted and reported as ErrCorrupt
// right here.
func (s *Store) Get(key string) ([]byte, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	defer s.getSeconds.ObserveSince(start)
	s.gets.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	blob, err := os.ReadFile(p)
	if errors.Is(err, os.ErrNotExist) {
		s.getMisses.Inc()
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("snapstore: %w", err)
	}
	if len(blob) < minSealedLen {
		// Too short to carry a seal: a torn or truncated file. Self-heal by
		// dropping it so the next Put can repopulate the slot.
		os.Remove(p)
		s.selfHeals.Inc()
		s.log.Warn("snapstore self-heal: deleted corrupt blob", "key", key, "bytes", len(blob))
		return nil, fmt.Errorf("%w: stored blob %s is %d bytes", ErrCorrupt, key, len(blob))
	}
	now := time.Now()
	_ = os.Chtimes(p, now, now) // LRU freshness; best-effort
	return blob, nil
}

// Touch freshens the LRU position of the blob under key without reading
// it, for a caller that already holds the blob's content. A key with no blob
// — never stored, deleted, or evicted by the size bound since — returns
// ErrNotFound.
func (s *Store) Touch(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	err = os.Chtimes(p, now, now)
	if errors.Is(err, os.ErrNotExist) {
		return ErrNotFound
	}
	if err != nil {
		return fmt.Errorf("snapstore: %w", err)
	}
	return nil
}

// Delete removes the blob under key; deleting an absent key is not an error.
func (s *Store) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("snapstore: %w", err)
	}
	return nil
}

// Len reports how many blobs the store currently holds.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for range s.entriesLocked() {
		n++
	}
	return n
}

// Bytes reports the total stored blob size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, e := range s.entriesLocked() {
		total += e.size
	}
	return total
}

type storeEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// entriesLocked lists the store's blob files. Callers hold s.mu.
func (s *Store) entriesLocked() []storeEntry {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []storeEntry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), blobExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		out = append(out, storeEntry{
			path:  filepath.Join(s.dir, de.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	return out
}

// evictLocked drops oldest-first until the store is within its size bound.
// keep (the key just written) is never evicted by its own Put — if one blob
// alone exceeds the bound, the store holds just that blob rather than
// thrashing. Callers hold s.mu.
func (s *Store) evictLocked(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	entries := s.entriesLocked()
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= s.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	keepPath := filepath.Join(s.dir, keep+blobExt)
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if e.path == keepPath {
			continue
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			s.evictions.Inc()
			s.evictionBytes.Add(uint64(e.size))
		}
	}
}

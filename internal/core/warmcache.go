package core

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"meecc/internal/obs/ops"
	"meecc/internal/snapstore"
)

// WarmCache memoizes ChannelWarmState values by the parameters the warm
// phase depends on, so trials that share a seed and machine (the experiment
// harness's SharedAxes) pay the warm-up once. It is safe for concurrent use
// and preserves the harness's determinism contract: a warm-forked run is
// exactly equal to a fresh one (TestWarmForkMatchesFreshRun), so whether a
// trial hits or misses the cache is invisible in the results.
//
// Each entry pins a platform snapshot (roughly one warmed platform's
// memory), so the in-memory tier is bounded: beyond capacity the least
// recently used entry is dropped. With a snapstore attached (AttachStore)
// the cache grows a second, disk tier: evicted entries are spilled to the
// store as sealed warm-state blobs instead of discarded, and a later miss
// faults the state back in from disk — decode of a spilled state forks
// bit-identically to the in-memory original, so the tier swap is invisible
// too. Each state is spilled at most once: evicting one the store already
// holds only freshens its blob. The disk tier is itself capacity-bounded by
// the store's size bound.
type WarmCache struct {
	mu  sync.Mutex
	cap int
	m   map[string]*warmEntry
	lru *list.List // front = most recently used; values are *warmEntry
	// spilling indexes entries evicted from the LRU whose disk spill (or
	// computation) is still in flight. A miss that finds its key here adopts
	// the entry instead of recomputing: without it, a re-warm racing an
	// in-flight spill sees neither the memory tier (already evicted) nor the
	// disk tier (not yet written) and duplicates the whole warm phase.
	spilling map[string]*warmEntry

	store *snapstore.Store

	// testSpillDelay, when set, runs inside spill between eviction and the
	// store write — a test hook to hold a spill in flight deterministically.
	testSpillDelay func()

	computes   atomic.Int64
	diskLoads  atomic.Int64
	diskSpills atomic.Int64

	// Wall-clock latency of each slow path; nil-safe when SetOps was never
	// called. These time operational cost only — cache behavior stays
	// invisible in results either way.
	computeSeconds *ops.Histogram
	loadSeconds    *ops.Histogram
	spillSeconds   *ops.Histogram
}

// SetOps registers the cache's wall-clock metrics on reg (nil-safe): slow-path
// latencies plus gauges mirroring Stats.
func (c *WarmCache) SetOps(reg *ops.Registry) {
	c.computeSeconds = reg.Histogram("meecc_warm_compute_seconds", "Wall time of warm-phase computations.", nil)
	c.loadSeconds = reg.Histogram("meecc_warm_disk_load_seconds", "Wall time of warm-state disk faults.", nil)
	c.spillSeconds = reg.Histogram("meecc_warm_spill_seconds", "Wall time of warm-state disk spills.", nil)
	reg.GaugeFunc("meecc_warm_computes", "Warm phases executed.", func() float64 { return float64(c.computes.Load()) })
	reg.GaugeFunc("meecc_warm_disk_loads", "Warm misses served from the disk tier.", func() float64 { return float64(c.diskLoads.Load()) })
	reg.GaugeFunc("meecc_warm_disk_spills", "Warm evictions persisted to disk.", func() float64 { return float64(c.diskSpills.Load()) })
	reg.GaugeFunc("meecc_warm_entries", "Warm states resident in memory.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.lru.Len())
	})
}

type warmEntry struct {
	key  string
	elem *list.Element
	once sync.Once
	done atomic.Bool // set after once completes; guards ws/err for spillers
	// stored records that the store holds this state's blob: faultIn
	// decoded ws from it (set inside once, before done), or a spill put it.
	stored atomic.Bool
	ws     *ChannelWarmState
	err    error
}

// NewWarmCache returns a cache holding at most capacity warm states
// (capacity <= 0 selects a default suited to the harness's worker pools).
func NewWarmCache(capacity int) *WarmCache {
	if capacity <= 0 {
		capacity = 16
	}
	return &WarmCache{cap: capacity, m: map[string]*warmEntry{}, lru: list.New(), spilling: map[string]*warmEntry{}}
}

// AttachStore enables the disk tier backed by st. Call before handing the
// cache to workers; states spilled by earlier processes with compatible keys
// are faulted in transparently.
func (c *WarmCache) AttachStore(st *snapstore.Store) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.store = st
}

// WarmCacheStats counts the cache's slow paths: Computes is how many times a
// warm phase was actually executed, DiskLoads how many misses were served
// from the disk tier instead, DiskSpills how many evictions were encoded and
// written to the store (evicting a state the store holds writes nothing).
type WarmCacheStats struct {
	Computes   int64
	DiskLoads  int64
	DiskSpills int64
}

// Stats returns a snapshot of the cache's counters.
func (c *WarmCache) Stats() WarmCacheStats {
	return WarmCacheStats{
		Computes:   c.computes.Load(),
		DiskLoads:  c.diskLoads.Load(),
		DiskSpills: c.diskSpills.Load(),
	}
}

// warmKey identifies a warm phase: everything WarmChannel's product depends
// on and ChannelWarmState.Run checks compatibility against. Configs that
// differ only in transmit-side knobs (Bits, Window, ProbePhase, Repetition)
// share a key.
func warmKey(cfg ChannelConfig) string {
	o := cfg.Options
	return fmt.Sprintf("seed=%d epc=%d pol=%q rev=%g meeways=%d twophase=%t",
		o.Seed, o.EPCMode, o.MEEPolicy, o.RandomEvictProb, o.MEEWays, cfg.TwoPhaseEviction)
}

// diskKey maps a warm key to its content address in the store. The warm key
// already encodes the machine config, seed, and warm-up schedule, so equal
// addresses mean byte-identical warm phases.
func diskKey(warmKey string) string {
	return snapstore.Key("warm-channel", warmKey)
}

// Warm returns the cached warm state for cfg's warm parameters, faulting it
// in from the disk tier or running WarmChannel on first use. Concurrent
// callers with the same key share one warm-up; callers with different keys
// warm in parallel. Errors are cached too (a machine whose warm phase fails,
// fails the same way every time).
func (c *WarmCache) Warm(cfg ChannelConfig) (*ChannelWarmState, error) {
	cfg.applyDefaults()
	if err := warmRestriction(cfg); err != nil {
		return nil, err
	}
	key := warmKey(cfg)
	var evicted []*warmEntry
	c.mu.Lock()
	e, ok := c.m[key]
	if ok {
		c.lru.MoveToFront(e.elem)
	} else {
		// Adopt an entry whose spill is still in flight rather than
		// recomputing it; otherwise start fresh.
		if sp, inFlight := c.spilling[key]; inFlight {
			e = sp
		} else {
			e = &warmEntry{key: key}
		}
		e.elem = c.lru.PushFront(e)
		c.m[key] = e
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			evict := oldest.Value.(*warmEntry)
			c.lru.Remove(oldest)
			delete(c.m, evict.key)
			c.spilling[evict.key] = evict
			evicted = append(evicted, evict)
		}
	}
	store := c.store
	c.mu.Unlock()
	for _, ev := range evicted {
		c.spill(store, ev)
	}
	e.once.Do(func() {
		defer e.done.Store(true)
		if ws, ok := c.faultIn(store, key); ok {
			e.ws = ws
			e.stored.Store(true)
			return
		}
		c.computes.Add(1)
		start := time.Now()
		e.ws, e.err = WarmChannel(cfg)
		c.computeSeconds.ObserveSince(start)
	})
	return e.ws, e.err
}

// spill persists an evicted entry to the disk tier. An entry the store
// already holds is not encoded again: its blob is only freshened in the
// store's LRU, unless the store has dropped it since, in which case it is
// spilled like a computed entry. Entries still computing, failed warm-ups,
// and encode or store errors are dropped silently — the state is rebuilt
// deterministically on a later miss, so spilling is purely an optimization.
func (c *WarmCache) spill(store *snapstore.Store, e *warmEntry) {
	defer func() {
		// The entry stays adoptable (see Warm) until the spill has landed in
		// the store — or been abandoned.
		c.mu.Lock()
		if c.spilling[e.key] == e {
			delete(c.spilling, e.key)
		}
		c.mu.Unlock()
	}()
	if c.testSpillDelay != nil {
		c.testSpillDelay()
	}
	if store == nil || !e.done.Load() || e.err != nil || e.ws == nil {
		return
	}
	key := diskKey(e.key)
	if e.stored.Load() && store.Touch(key) == nil {
		return
	}
	start := time.Now()
	blob, err := e.ws.Encode()
	if err != nil {
		return
	}
	if store.Put(key, blob) == nil {
		e.stored.Store(true)
		c.diskSpills.Add(1)
		c.spillSeconds.ObserveSince(start)
	}
}

// SpillResident spills every warm state resident in the memory tier that
// the store does not hold yet, oldest first, so that a process that shuts
// down leaves its warm states on disk for the next one. A state the store
// holds only has its blob freshened, as on eviction, so each state is still
// spilled at most once. It does nothing without a store. Call it once the
// cache's users have stopped: serve does, after its workers drain.
func (c *WarmCache) SpillResident() {
	c.mu.Lock()
	store := c.store
	resident := make([]*warmEntry, 0, c.lru.Len())
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		resident = append(resident, el.Value.(*warmEntry))
	}
	c.mu.Unlock()
	for _, e := range resident {
		c.spill(store, e)
	}
}

// faultIn tries to serve a miss from the disk tier. Any failure — absent,
// evicted by the store's own size bound, or corrupt (the seal's checksum
// rejects damage) — falls back to recomputing, and the recomputed entry's
// spill overwrites a damaged blob.
func (c *WarmCache) faultIn(store *snapstore.Store, key string) (*ChannelWarmState, bool) {
	if store == nil {
		return nil, false
	}
	start := time.Now()
	blob, err := store.Get(diskKey(key))
	if err != nil {
		return nil, false
	}
	ws, err := DecodeWarmState(blob)
	if err != nil {
		return nil, false
	}
	c.diskLoads.Add(1)
	c.loadSeconds.ObserveSince(start)
	return ws, true
}

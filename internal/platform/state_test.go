package platform

import (
	"testing"

	"meecc/internal/cache"
)

// TestSnapshotFromStateRejectsMEEGeometryNewRefuses: an image whose config
// and MEE cache state agree on a set count mee.New refuses (odd, so no
// odd/even split) must fail to decode, not yield a snapshot whose forks
// index past the MEE cache's sets.
func TestSnapshotFromStateRejectsMEEGeometryNewRefuses(t *testing.T) {
	p := New(DefaultConfig(1))
	defer p.Close()
	st := p.Snapshot().ExportState()
	if _, err := SnapshotFromState(st); err != nil {
		t.Fatal(err)
	}
	st.Cfg.MEE.CacheSets = 127
	st.MEE.Cache = cache.New("mee", 127, st.Cfg.MEE.CacheWays, cache.NewLRU()).ExportState()
	st.MEE.Bufs = nil
	if _, err := SnapshotFromState(st); err == nil {
		t.Fatal("image with a 127-set MEE cache decoded without error")
	}
}

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

// TestNewRefusesConfigSnapshotFromStateRejects: New and SnapshotFromState
// share one machine-config rule, so New panics on a DRAM smaller than the
// PRM, which would otherwise place the PRM below address zero, and on a
// PRM base that is not line aligned.
func TestNewRefusesConfigSnapshotFromStateRejects(t *testing.T) {
	for _, size := range []uint64{PRMSize / 2, DefaultConfig(1).DRAM.Size + 32} {
		cfg := DefaultConfig(1)
		cfg.DRAM.Size = size
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New booted a machine with a %#x-byte DRAM", size)
				}
			}()
			New(cfg).Close()
		}()
	}
}

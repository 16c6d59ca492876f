package platform

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/wire"
)

// image returns the image s appends.
func image(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var w wire.Writer
	if err := s.AppendImage(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// withConfig returns a snapshot image with its config, the leading JSON
// blob, changed by edit.
func withConfig(t *testing.T, img []byte, edit func(*Config)) []byte {
	t.Helper()
	r := wire.NewReader(img)
	var cfg Config
	if err := json.Unmarshal(r.Blob(), &cfg); err != nil {
		t.Fatal(err)
	}
	edit(&cfg)
	js, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.Blob(js)
	w.Raw(img[len(img)-r.Remaining():])
	return w.Bytes()
}

// TestReadSnapshotRejectsMEEGeometryNewRefuses: an image whose config
// and MEE cache image agree on a set count mee.New refuses (odd, so no
// odd/even split) must fail to decode, not yield a snapshot whose forks
// index past the MEE cache's sets. A freshly booted machine's MEE cache is
// empty, so its image lists no buffer to go with the cache image swapped
// in.
func TestReadSnapshotRejectsMEEGeometryNewRefuses(t *testing.T) {
	p := New(DefaultConfig(1))
	defer p.Close()
	s := p.Snapshot()
	img := image(t, s)
	if _, err := ReadSnapshot(wire.NewReader(img)); err != nil {
		t.Fatal(err)
	}
	var even, odd wire.Writer
	s.mee.Cache().AppendImage(&even)
	cache.New("mee", 127, s.cfg.MEE.CacheWays, cache.NewLRU()).AppendImage(&odd)
	at := bytes.Index(img, even.Bytes())
	if at < 0 {
		t.Fatal("the MEE cache's image is not in the snapshot's")
	}
	img = slices.Concat(img[:at], odd.Bytes(), img[at+even.Len():])
	img = withConfig(t, img, func(c *Config) { c.MEE.CacheSets = 127 })
	if _, err := ReadSnapshot(wire.NewReader(img)); err == nil {
		t.Fatal("image with a 127-set MEE cache decoded without error")
	}
}

// TestNewRefusesConfigReadSnapshotRejects: New and ReadSnapshot share one
// machine-config rule, so New panics on each config below, and
// ReadSnapshot rejects, as corrupt, an image whose config is one of them:
// a DRAM smaller than the PRM, which would place the PRM below address
// zero; a PRM base that is not line aligned; and a DRAM or an L1, L2, LLC
// or MEE set count larger than the testbed's, which would size what the
// reader allocates beyond any machine New boots.
func TestNewRefusesConfigReadSnapshotRejects(t *testing.T) {
	p := New(DefaultConfig(1))
	defer p.Close()
	img := image(t, p.Snapshot())
	top := DefaultConfig(1)
	for name, edit := range map[string]func(*Config){
		"dram below the PRM":     func(c *Config) { c.DRAM.Size = PRMSize / 2 },
		"PRM base not aligned":   func(c *Config) { c.DRAM.Size = top.DRAM.Size - 32 },
		"dram above the testbed": func(c *Config) { c.DRAM.Size = 2 * top.DRAM.Size },
		"L1 sets above":          func(c *Config) { c.CPU.L1Sets = 2 * top.CPU.L1Sets },
		"L2 sets above":          func(c *Config) { c.CPU.L2Sets = 2 * top.CPU.L2Sets },
		"LLC sets above":         func(c *Config) { c.CPU.LLCSets = 2 * top.CPU.LLCSets },
		"MEE sets above":         func(c *Config) { c.MEE.CacheSets = 2 * top.MEE.CacheSets },
	} {
		cfg := DefaultConfig(1)
		edit(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: New booted the machine", name)
				}
			}()
			New(cfg).Close()
		}()
		if _, err := ReadSnapshot(wire.NewReader(withConfig(t, img, edit))); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("%s: ReadSnapshot gave %v, want ErrCorrupt", name, err)
		}
	}
}

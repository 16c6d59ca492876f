package cpucache

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"meecc/internal/cache"
	"meecc/internal/dram"
	"meecc/internal/wire"
)

// image returns the image h appends.
func image(h *Hierarchy) []byte {
	var w wire.Writer
	h.AppendImage(&w)
	return w.Bytes()
}

// TestStateRoundTrip appends the image of a hierarchy holding clean and
// dirty lines, reads it back, and appends again: the images match, and
// only sets holding a buffer get a block.
func TestStateRoundTrip(t *testing.T) {
	h := newH()
	for i := 0; i < 40; i++ {
		h.Fill(i%4, dram.Addr(0x40000+i*dram.LineSize), line(byte(i)), i%3 == 0)
	}
	h.Flush(0x40000)
	img := image(h)
	dec, err := ReadHierarchy(wire.NewReader(img), h.Config())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(image(dec), img) {
		t.Fatal("decoded hierarchy appends a different image")
	}
	// A set never filled reads as the one shared empty block; set 0 is one.
	empty, blocks := &dec.bufs.Read(0)[0], 0
	for s := 0; s < dec.cfg.LLCSets; s++ {
		if &dec.bufs.Read(s)[0] != empty {
			blocks++
		}
	}
	if lines := h.llc.ValidCount(); blocks != lines {
		t.Fatalf("decoded %d blocks for %d one-line sets", blocks, lines)
	}
}

// TestStateRejectsUnrepresentableCores: the presence masks have one bit per
// core, so an image with more cores than bits must fail to decode instead of
// yielding a machine whose writes and evictions skip the high cores' private
// caches.
func TestStateRejectsUnrepresentableCores(t *testing.T) {
	for _, cores := range []int{0, maxCores + 1} {
		cfg := DefaultConfig(cores)
		if _, err := ReadHierarchy(wire.NewReader(freshImage(cfg)), cfg); err == nil {
			t.Errorf("%d-core image decoded without error", cores)
		}
	}
}

// freshImage returns the image of a hierarchy of fresh caches of cfg's
// geometry, built without New so that cfg may break cpucache's rules.
func freshImage(cfg Config) []byte {
	h := newHierarchy(cfg, newBufs(cfg))
	h.llc = cache.New("llc", cfg.LLCSets, cfg.LLCWays, cache.NewLRU())
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New("l1d", cfg.L1Sets, cfg.L1Ways, cache.NewLRU()))
		h.l2 = append(h.l2, cache.New("l2", cfg.L2Sets, cfg.L2Ways, cache.NewLRU()))
	}
	return image(h)
}

// TestStateRejectsNonPowerOfTwoSets: set indexes mask the line address, so
// an image whose L1, L2 or LLC set count is not a power of two must fail to
// decode, as New refuses it, instead of yielding a machine that indexes
// past its sets.
func TestStateRejectsNonPowerOfTwoSets(t *testing.T) {
	for _, bad := range []func(*Config){
		func(c *Config) { c.L1Sets = 48 },
		func(c *Config) { c.L2Sets = 1000 },
		func(c *Config) { c.LLCSets = 6 },
	} {
		cfg := DefaultConfig(2)
		bad(&cfg)
		if _, err := ReadHierarchy(wire.NewReader(freshImage(cfg)), cfg); err == nil {
			t.Errorf("image with L1/L2/LLC sets %d/%d/%d decoded without error", cfg.L1Sets, cfg.L2Sets, cfg.LLCSets)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted L1/L2/LLC sets %d/%d/%d", cfg.L1Sets, cfg.L2Sets, cfg.LLCSets)
				}
			}()
			New(cfg, cache.NewLRU())
		}()
	}
}

// TestStateRejectsBuffersOffValidLines: clflush scans the LLC once and
// takes the line's buffer, so an image must list exactly one buffer per
// valid LLC line: none missing, and none beyond them.
func TestStateRejectsBuffersOffValidLines(t *testing.T) {
	h := newH()
	h.Fill(0, 0x40000, line(1), true)
	h.Fill(1, 0x80000, line(2), false)
	img := image(h)
	if _, err := ReadHierarchy(wire.NewReader(img), h.Config()); err != nil {
		t.Fatal(err)
	}
	// The buffers end the image, after their count.
	count := len(img) - 8 - 2*dram.LineSize
	if n := binary.LittleEndian.Uint64(img[count:]); n != 2 {
		t.Fatalf("image counts %d buffers, want 2", n)
	}
	withBuffers := func(n uint64, bufs []byte) []byte {
		return slices.Concat(img[:count], binary.LittleEndian.AppendUint64(nil, n), bufs)
	}
	bufs := img[count+8:]
	if _, err := ReadHierarchy(wire.NewReader(withBuffers(1, bufs[dram.LineSize:])), h.Config()); err == nil {
		t.Error("valid LLC line without a buffer decoded without error")
	}
	stray := withBuffers(3, slices.Concat(bufs, make([]byte, dram.LineSize)))
	if _, err := ReadHierarchy(wire.NewReader(stray), h.Config()); err == nil {
		t.Error("buffer beyond the valid LLC lines decoded without error")
	}
}

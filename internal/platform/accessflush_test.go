package platform_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"meecc/internal/cpucache"
	"meecc/internal/enclave"
	"meecc/internal/mee"
	"meecc/internal/obs"
	"meecc/internal/platform"
	"meecc/internal/sim"
	"meecc/internal/snapstore"
	"meecc/internal/wire"
)

// flushCase is one AccessFlush script: the machine seed, its ambient spike
// model, each thread's start clock and ops (two bytes per op: kind, then
// target), and the limit of the first Run (negative: none). Clocks count
// from the end of the writer that dirties the scripts' kind-7 lines.
type flushCase struct {
	seed                uint64
	spikeProb, spikeMax float64
	starts              []sim.Cycles
	ops                 [][]byte
	limit               sim.Cycles
}

// flushPoint is what a run leaves behind when a Run returns: each thread's
// clock and access results so far, what Run reported, the observer's
// semantic counters (sim.ops, sim.busy_cycles, cpucache.flushes and every
// cache level's statistics among them), the random stream, the CPU
// hierarchy's image and the MEE's statistics.
type flushPoint struct {
	Run      sim.Cycles
	Clocks   []sim.Cycles
	Results  [][]platform.AccessResult
	Counters map[string]uint64
	RNG      []byte
	Caches   []byte
	MEE      mee.Stats
}

// cacheImage returns the image h appends.
func cacheImage(h *cpucache.Hierarchy) []byte {
	var w wire.Writer
	h.AppendImage(&w)
	return w.Bytes()
}

// Shrunk CPU caches: lines 64 bytes apart in the enclave's pages share an
// L1 set every 2 lines, an L2 set every 4 and an LLC set every 8, so the
// scripts' lines fill sets at every level.
var flushCPU = cpucache.Config{L1Sets: 2, L1Ways: 2, L2Sets: 4, L2Ways: 2, LLCSets: 8, LLCWays: 4}

const (
	flushPages   = 8 // enclave pages the scripts touch
	flushGeneral = 2 // general pages the scripts touch
)

// runFlushCase plays fc on a fresh machine, its writer first, then the
// scripts to the limit and then to the end; pair is the load+clflush the
// scripts' pair ops run, and linear selects the reference scheduler. It
// returns both Run points and the encoded snapshot of the finished machine.
func runFlushCase(t *testing.T, fc flushCase, linear bool, pair func(*platform.Thread, enclave.VAddr) platform.AccessResult) ([2]flushPoint, []byte) {
	t.Helper()
	sim.SetForceLinearSchedulerForTest(linear)
	defer sim.SetForceLinearSchedulerForTest(false)
	cfg := platform.DefaultConfig(fc.seed)
	cfg.CPU = flushCPU
	cfg.SpikeProb, cfg.SpikeMax = fc.spikeProb, fc.spikeMax
	o := obs.NewObserver()
	cfg.Obs = o
	p := platform.New(cfg)
	defer p.Close()
	pr := p.NewProcess("proc")
	e, err := pr.CreateEnclave(flushPages)
	if err != nil {
		t.Fatal(err)
	}
	general := pr.AllocGeneral(flushGeneral)
	// line maps an op's target to a line: page target%pages, line
	// target/pages%16 of it.
	line := func(base enclave.VAddr, pages, target int) enclave.VAddr {
		return base + enclave.VAddr(target%pages*enclave.PageBytes+target/pages%16*64)
	}
	// Dirty lines come first, from a writer that runs alone: a write's
	// store lands after its access has yielded, so it must not race
	// another thread's flush or eviction of the line.
	writer := p.SpawnThread("writer", pr, 3, func(th *platform.Thread) {
		th.EnterEnclave()
		for _, ops := range fc.ops {
			for k := 0; k+1 < len(ops); k += 2 {
				if ops[k]%8 == 7 {
					th.WriteU64(line(e.Base, flushPages, int(ops[k+1])), uint64(k))
				}
			}
		}
	})
	p.Run(-1)
	t0 := writer.Now()
	threads := make([]*platform.Thread, len(fc.ops))
	results := make([][]platform.AccessResult, len(fc.ops))
	for i, ops := range fc.ops {
		threads[i] = p.SpawnThreadAt(fmt.Sprint("t", i), pr, i, t0+fc.starts[i], func(th *platform.Thread) {
			th.EnterEnclave()
			for k := 0; k+1 < len(ops); k += 2 {
				kind, target := ops[k]%8, int(ops[k+1])
				va := line(e.Base, flushPages, target)
				var res platform.AccessResult
				switch kind {
				case 0, 1, 2:
					res = pair(th, va)
				case 3, 7:
					res = th.Access(va)
				case 4:
					th.Flush(va)
					continue
				case 5:
					th.Spin(sim.Cycles(target*8 + 1))
					continue
				case 6:
					res = pair(th, line(general, flushGeneral, target))
				}
				results[i] = append(results[i], res)
			}
		})
	}
	if fc.limit >= 0 {
		fc.limit += t0
	}
	var out [2]flushPoint
	for k, l := range []sim.Cycles{fc.limit, -1} {
		pt := flushPoint{
			Run:      p.Run(l),
			Counters: o.Snapshot().Counters,
			RNG:      p.Engine().RNGSnapshot(),
			Caches:   cacheImage(p.Caches()),
			MEE:      p.MEE().Stats(),
		}
		for i, th := range threads {
			pt.Clocks = append(pt.Clocks, th.Now())
			pt.Results = append(pt.Results, append([]platform.AccessResult(nil), results[i]...))
		}
		out[k] = pt
	}
	blob, err := snapstore.EncodeSnapshot(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return out, blob
}

// FuzzAccessFlush checks the access–flush collapse against the pair it
// stands for. Two or three threads on different cores run random scripts
// of load+clflush pairs (on enclave and general lines), loads, flushes and
// short spins over lines that share sets at every shrunk CPU cache level,
// some of them dirtied beforehand, so LLC sets fill and dirty victims are
// written back, and a peer is often due inside a load's latency. The first
// Run's limit may fall between a load and its flush. AccessFlush under the
// heap scheduler (which collapses), AccessFlush under the linear scheduler
// (which never does) and the literal Access then Flush must leave equal
// results, clocks, counters, random streams, cache images and MEE
// statistics at both Run points, and byte-identical encoded snapshots.
func FuzzAccessFlush(f *testing.F) {
	// A: pairs over two LLC sets while the peer spins ~2 000 cycles per
	// op, so most pairs find no peer due before their flush.
	a := []byte{0, 0, 5, 255, 0, 1, 5, 255, 0, 2, 5, 255, 0, 3, 5, 255, 0, 4, 5, 255, 0, 5, 5, 255, 0, 6, 5, 255, 0, 7, 5, 255,
		0, 8, 5, 255, 0, 9, 5, 255, 0, 10, 5, 255, 0, 11, 5, 255, 0, 12, 5, 255, 0, 13, 5, 255, 0, 14, 5, 255, 0, 15, 5, 255}
	// B: three threads; the first dirties and loads LLC set 0 full, then
	// pairs in it and elsewhere, as the third pairs between long spins.
	b := []byte{7, 0, 5, 255, 5, 200, 7, 1, 5, 255, 0, 4, 3, 2, 5, 255, 5, 255, 3, 3, 5, 255, 0, 5, 0, 4, 5, 255, 5, 255,
		0, 5, 5, 255, 0, 12, 0, 6, 5, 255, 5, 200, 0, 7, 5, 255, 0, 4, 0, 0, 5, 255, 5, 255, 0, 1, 5, 255, 0, 5,
		6, 0, 5, 255, 5, 255, 6, 2, 5, 255, 0, 12, 0, 8, 5, 255, 5, 200, 0, 9, 5, 255, 0, 4}
	f.Add(uint64(1), uint8(1), uint16(0), uint16(50), uint16(0), uint32(0), a)
	f.Add(uint64(7), uint8(2), uint16(0), uint16(50), uint16(0), uint32(20_001), a)
	f.Add(uint64(42), uint8(11), uint16(0), uint16(100), uint16(200), uint32(30_002), b)
	f.Add(uint64(1007), uint8(6), uint16(0), uint16(100), uint16(200), uint32(0), b)
	f.Add(uint64(3), uint8(0), uint16(0), uint16(300), uint16(700), uint32(0),
		[]byte{0, 0, 0, 8, 1, 16, 2, 24, 0, 32, 0, 40, 6, 10, 0, 0, 0, 8, 7, 1, 0, 48})
	f.Fuzz(func(t *testing.T, seed uint64, model uint8, s0, s1, s2 uint16, limit uint32, script []byte) {
		if len(script) > 160 {
			script = script[:160]
		}
		fc := flushCase{
			seed: seed % (1 << 16),
			// The default spikes, and spikes on most or every access, so
			// a spike often decides whether a peer comes due first.
			spikeProb: []float64{0.05, 0.5, 1}[model%3],
			spikeMax:  []float64{500, 3000}[model/3%2],
			starts:    []sim.Cycles{sim.Cycles(s0 % 4000), sim.Cycles(s1 % 4000), sim.Cycles(s2 % 4000)},
			ops:       make([][]byte, 2+int(model/6%2)),
			limit:     -1,
		}
		// Ops go to the threads in turn, so a peer is due between most
		// of a thread's ops. Every fourth case runs unlimited; the rest
		// stop somewhere in the first ~70k cycles.
		for k := 0; k+1 < len(script); k += 2 {
			i := k / 2 % len(fc.ops)
			fc.ops[i] = append(fc.ops[i], script[k], script[k+1])
		}
		if limit%4 != 0 {
			fc.limit = sim.Cycles(limit % 70_000)
		}
		fused := func(th *platform.Thread, va enclave.VAddr) platform.AccessResult { return th.AccessFlush(va) }
		literal := func(th *platform.Thread, va enclave.VAddr) platform.AccessResult {
			res := th.Access(va)
			th.Flush(va)
			return res
		}
		want, wantBlob := runFlushCase(t, fc, false, literal)
		for _, linear := range []bool{false, true} {
			got, blob := runFlushCase(t, fc, linear, fused)
			for k := range got {
				g, w := reflect.ValueOf(got[k]), reflect.ValueOf(want[k])
				for i := 0; i < g.NumField(); i++ {
					if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
						t.Fatalf("linear=%v, Run %d: AccessFlush and Access+Flush left different %s",
							linear, k, g.Type().Field(i).Name)
					}
				}
			}
			if !bytes.Equal(blob, wantBlob) {
				t.Fatalf("linear=%v: encoded snapshots differ (%d and %d bytes)", linear, len(blob), len(wantBlob))
			}
		}
	})
}

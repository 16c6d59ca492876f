// Package platform assembles the simulated machine: cores, the CPU cache
// hierarchy, DRAM, the MEE with its integrity tree, the EPC allocator, and
// the process/thread abstractions that attack code is written against. The
// default configuration models the paper's testbed — an Intel i7-6700K
// (Skylake, 4 cores, SMT, 4 GHz) with 32 GB of DRAM and a 128 MB MEE region.
package platform

import (
	"fmt"
	"math"
	"math/rand/v2"

	"meecc/internal/cache"
	"meecc/internal/cpucache"
	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/itree"
	"meecc/internal/mee"
	"meecc/internal/obs"
	"meecc/internal/sim"
)

// Config describes a whole simulated machine.
type Config struct {
	Seed uint64

	DRAM dram.Config
	CPU  cpucache.Config
	MEE  mee.Config
	// MEEPolicyName, when non-empty, overrides MEE.Policy by name (lru,
	// fifo, tree-plru, bit-plru, random, nru, srrip) using the engine's
	// seeded random source — needed because the random policies must share
	// the engine RNG.
	MEEPolicyName string

	EPCMode enclave.AllocMode

	// SpikeProb/SpikeMax inject occasional latency spikes on memory
	// operations, modeling the ambient system interference (SMIs, TLB
	// walks, prefetcher traffic) that gives the real channel its error
	// floor.
	SpikeProb float64
	SpikeMax  float64

	// Timing of the hyperthread timer (Section 3, Figure 2(c)).
	TimerResolution float64
	TimerReadCost   float64

	// Obs, when non-nil, receives metrics and (optionally) timeline events
	// from every component of the booted machine. Nil — the default — keeps
	// all hot paths on their zero-instrumentation nil-check fast path.
	Obs *obs.Observer
}

// The paper's testbed, which every machine models.
const (
	// Cores is the physical core count; a machine's CPU.Cores is set to it.
	Cores = 4
	// FreqGHz is the core clock.
	FreqGHz = 4.0
	// PRMSize is the processor-reserved (MEE) region, placed at the top of
	// DRAM; EPCSize is the protected data portion inside it.
	PRMSize = 128 << 20
	EPCSize = 96 << 20
	// EnterExitCost is the cycle cost of one EENTER or EEXIT, and RdtscCost
	// of one rdtsc outside enclave mode (Section 3, Figure 2).
	EnterExitCost = 4000
	RdtscCost     = 25
)

// DefaultConfig returns the paper-testbed machine with the given seed.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:            seed,
		DRAM:            dram.DefaultConfig(),
		CPU:             cpucache.DefaultConfig(Cores),
		MEE:             mee.DefaultConfig(),
		EPCMode:         enclave.AllocSequential,
		SpikeProb:       0.05,
		SpikeMax:        500,
		TimerResolution: enclave.TimerResolutionCycles,
		TimerReadCost:   enclave.TimerReadCycles,
	}
}

// spikeBound is the most cycles one ambient spike can add to an access,
// whose spike is Cycles(Float64()*SpikeMax) with Float64 below 1. It is -1
// when no bound fits the clock, for a SpikeMax too large or not a number.
func (c *Config) spikeBound() sim.Cycles {
	switch {
	case c.SpikeProb <= 0 || c.SpikeMax <= 0:
		return 0
	case c.SpikeMax < 1<<40:
		return sim.Cycles(math.Ceil(c.SpikeMax))
	default:
		return -1
	}
}

// Platform is one booted machine.
type Platform struct {
	cfg    Config
	eng    *sim.Engine
	mem    *dram.DRAM
	mee    *mee.Engine
	caches *cpucache.Hierarchy
	epc    *enclave.EPCAllocator

	// genUsed is a bitmap over the general-region 4 KB frames handed out,
	// kept sparse: only its nonzero words, keyed by word index. A machine
	// hands out few of its millions of frames, so boot and fork copy
	// almost nothing.
	genUsed map[uint64]uint64
	prmBase dram.Addr
	procs   []*Process
	nextEID int
	nextPID int
	rng     *rand.Rand
}

// genFrameUsed reports whether the general-region frame at f was handed out.
func (p *Platform) genFrameUsed(f dram.Addr) bool {
	i := uint64(f) / enclave.PageBytes
	return p.genUsed[i/64]&(1<<(i%64)) != 0
}

// genWords returns the word count of the general-region frame bitmap below
// a PRM at prmBase, in its dense serialized form.
func genWords(prmBase dram.Addr) int {
	return int((uint64(prmBase)/enclave.PageBytes + 63) / 64)
}

// markGenFrame records the general-region frame at f as handed out.
func (p *Platform) markGenFrame(f dram.Addr) {
	i := uint64(f) / enclave.PageBytes
	p.genUsed[i/64] |= 1 << (i % 64)
}

// checkConfig is the one machine-config rule New and ReadSnapshot share:
// the machine's core count; a DRAM no larger than the testbed's that holds
// the PRM at its top, at a line-aligned base (itree.NewGeometry's rule);
// and L1, L2, LLC and MEE set counts no larger than the testbed's. The
// bounds cap what a machine sizes by its config — the DRAM's chunk
// directory and each cache's per-set words — so a decoded config cannot
// make the reader allocate more than the testbed before the image is
// checked against it. It returns the PRM's integrity-tree geometry.
func checkConfig(cfg Config) (itree.Geometry, error) {
	top := DefaultConfig(cfg.Seed)
	switch {
	case cfg.CPU.Cores != Cores:
		return itree.Geometry{}, fmt.Errorf("platform: cpu cores %d, want %d", cfg.CPU.Cores, Cores)
	case cfg.DRAM.Size > top.DRAM.Size:
		return itree.Geometry{}, fmt.Errorf("platform: dram size %d above the testbed's %d", cfg.DRAM.Size, top.DRAM.Size)
	case cfg.DRAM.Size < PRMSize:
		return itree.Geometry{}, fmt.Errorf("platform: dram size %d below the %d-byte PRM", cfg.DRAM.Size, PRMSize)
	case cfg.CPU.L1Sets > top.CPU.L1Sets || cfg.CPU.L2Sets > top.CPU.L2Sets ||
		cfg.CPU.LLCSets > top.CPU.LLCSets || cfg.MEE.CacheSets > top.MEE.CacheSets:
		return itree.Geometry{}, fmt.Errorf("platform: L1/L2/LLC/MEE set counts %d/%d/%d/%d above the testbed's %d/%d/%d/%d",
			cfg.CPU.L1Sets, cfg.CPU.L2Sets, cfg.CPU.LLCSets, cfg.MEE.CacheSets,
			top.CPU.L1Sets, top.CPU.L2Sets, top.CPU.LLCSets, top.MEE.CacheSets)
	}
	geom, err := itree.NewGeometry(dram.Addr(cfg.DRAM.Size-PRMSize), PRMSize, EPCSize)
	if err != nil {
		return itree.Geometry{}, fmt.Errorf("platform: %w", err)
	}
	return geom, nil
}

// bootDraws makes a boot's seeded draws from rng, in their order: the MEE's
// master key, 16 draws, then the EPC's frame order. New makes them on the
// engine's stream and ReadSnapshot on a fresh stream seeded the same
// way, so the seed fixes both and a snapshot image carries neither.
func bootDraws(cfg Config, geom itree.Geometry, rng *rand.Rand) (*itree.Crypto, *enclave.EPCAllocator) {
	var master [16]byte
	for i := range master {
		master[i] = byte(rng.Uint64())
	}
	return itree.NewCrypto(master), enclave.NewEPCAllocator(geom.PRMBase, EPCSize, cfg.EPCMode, rng)
}

// New boots a machine from cfg, whose core count it sets to the machine's.
// It panics on inconsistent configuration — a booted platform is always
// internally consistent.
func New(cfg Config) *Platform {
	cfg.CPU.Cores = Cores
	geom, err := checkConfig(cfg)
	if err != nil {
		panic(err.Error())
	}
	eng := sim.NewEngine(cfg.Seed)
	rng := eng.Rand()
	if cfg.MEEPolicyName != "" {
		pol, err := cache.PolicyByName(cfg.MEEPolicyName, rng)
		if err != nil {
			panic(fmt.Sprintf("platform: %v", err))
		}
		cfg.MEE.Policy = pol
	}
	if cfg.MEE.Policy == nil {
		cfg.MEE.Policy = cache.NewLRU()
	}
	mem := dram.New(cfg.DRAM)
	crypt, epc := bootDraws(cfg, geom, rng)
	p := &Platform{
		cfg:     cfg,
		eng:     eng,
		mem:     mem,
		mee:     mee.New(cfg.MEE, geom, crypt, mem),
		caches:  cpucache.New(cfg.CPU, cache.NewLRU()),
		epc:     epc,
		genUsed: make(map[uint64]uint64),
		prmBase: geom.PRMBase,
		rng:     rng,
	}
	if o := cfg.Obs; o != nil {
		o.Tracer().SetCyclesPerMicrosecond(FreqGHz * 1000)
		eng.Observe(o)
		p.mee.Observe(o)
		p.caches.Observe(o)
	}
	return p
}

// Obs returns the observer the platform was booted with (nil when
// observability is disabled).
func (p *Platform) Obs() *obs.Observer { return p.cfg.Obs }

// Engine exposes the simulation engine (Run/Close live there).
func (p *Platform) Engine() *sim.Engine { return p.eng }

// MEE exposes the memory encryption engine.
func (p *Platform) MEE() *mee.Engine { return p.mee }

// Mem exposes DRAM.
func (p *Platform) Mem() *dram.DRAM { return p.mem }

// Caches exposes the CPU cache hierarchy.
func (p *Platform) Caches() *cpucache.Hierarchy { return p.caches }

// EPC exposes the enclave page allocator.
func (p *Platform) EPC() *enclave.EPCAllocator { return p.epc }

// Config returns the boot configuration.
func (p *Platform) Config() Config { return p.cfg }

// Run advances simulation; see sim.Engine.Run.
func (p *Platform) Run(limit sim.Cycles) sim.Cycles { return p.eng.Run(limit) }

// Close tears down all actors.
func (p *Platform) Close() { p.eng.Close() }

// CyclesPerSecond converts the core frequency.
func (p *Platform) CyclesPerSecond() float64 { return FreqGHz * 1e9 }

// WindowKBps converts a per-bit timing window into a channel bit rate in
// kilobytes per second, the unit Figure 7 of the paper uses.
func (p *Platform) WindowKBps(window sim.Cycles) float64 {
	return p.CyclesPerSecond() / float64(window) / 8 / 1000
}

// allocGeneralFrame picks an unused random 4 KB frame outside the PRM,
// modeling an OS physical allocator on a long-running machine.
func (p *Platform) allocGeneralFrame() dram.Addr {
	nFrames := uint64(p.prmBase) / enclave.PageBytes
	for {
		f := dram.Addr(p.rng.Uint64N(nFrames) * enclave.PageBytes)
		if !p.genFrameUsed(f) {
			p.markGenFrame(f)
			return f
		}
	}
}

// allocHugeFrame picks an unused 2 MB-aligned physically contiguous region
// outside the PRM and marks all its 4 KB frames used.
func (p *Platform) allocHugeFrame() dram.Addr {
	nHuge := uint64(p.prmBase) / HugepageBytes
	for {
		base := dram.Addr(p.rng.Uint64N(nHuge) * HugepageBytes)
		free := true
		for off := 0; off < HugepageBytes; off += enclave.PageBytes {
			if p.genFrameUsed(base + dram.Addr(off)) {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		for off := 0; off < HugepageBytes; off += enclave.PageBytes {
			p.markGenFrame(base + dram.Addr(off))
		}
		return base
	}
}

// NewProcess creates a process with an empty address space.
func (p *Platform) NewProcess(name string) *Process {
	pr := &Process{
		plat:     p,
		name:     name,
		pid:      p.nextPID,
		pt:       enclave.NewPageTable(),
		heapNext: 0x0000_1000_0000,
		enclNext: 0x0000_8000_0000,
	}
	p.nextPID++
	p.procs = append(p.procs, pr)
	return pr
}

// Process is one OS process, optionally hosting an enclave.
type Process struct {
	plat     *Platform
	name     string
	pid      int
	pt       *enclave.PageTable
	heapNext enclave.VAddr
	enclNext enclave.VAddr
	encl     *enclave.Enclave
}

// Name returns the process name.
func (pr *Process) Name() string { return pr.name }

// Enclave returns the process's enclave, or nil.
func (pr *Process) Enclave() *enclave.Enclave { return pr.encl }

// AllocGeneral maps n fresh 4 KB pages of ordinary memory and returns the
// base virtual address. Physical frames are randomly scattered, as on a
// real long-running system.
func (pr *Process) AllocGeneral(n int) enclave.VAddr {
	base := pr.heapNext
	for i := 0; i < n; i++ {
		pr.pt.Map(pr.heapNext, pr.plat.allocGeneralFrame())
		pr.heapNext += enclave.PageBytes
	}
	return base
}

// HugepageBytes is the size of a transparent hugepage (2 MB). Hugepages
// are available only to ordinary memory — SGX1 enclaves cannot use them
// (challenge 3, §3), which is why LLC-style attacks lose their main tool
// inside enclaves.
const HugepageBytes = 2 << 20

// AllocHugepages maps n 2 MB hugepages (physically contiguous and 2 MB
// aligned) of ordinary memory and returns the base virtual address.
// Virtual-to-physical contiguity within each hugepage is what classic LLC
// Prime+Probe attacks use to construct eviction sets.
func (pr *Process) AllocHugepages(n int) enclave.VAddr {
	// Align the heap cursor so VA mod 2 MB == PA mod 2 MB == 0.
	if rem := uint64(pr.heapNext) % HugepageBytes; rem != 0 {
		pr.heapNext += enclave.VAddr(HugepageBytes - rem)
	}
	base := pr.heapNext
	for i := 0; i < n; i++ {
		pa := pr.plat.allocHugeFrame()
		for off := 0; off < HugepageBytes; off += enclave.PageBytes {
			pr.pt.Map(pr.heapNext+enclave.VAddr(off), pa+dram.Addr(off))
		}
		pr.heapNext += HugepageBytes
	}
	return base
}

// CreateEnclave builds an enclave of n EPC pages mapped contiguously in the
// process's ELRANGE and returns it. EPC frames come from the platform
// allocator (sequential by default — see enclave.AllocMode).
func (pr *Process) CreateEnclave(n int) (*enclave.Enclave, error) {
	if pr.encl != nil {
		return nil, fmt.Errorf("platform: process %s already has an enclave", pr.name)
	}
	e := &enclave.Enclave{ID: pr.plat.nextEID, Base: pr.enclNext, Pages: n}
	pr.plat.nextEID++
	for i := 0; i < n; i++ {
		f, err := pr.plat.epc.Alloc(e.ID)
		if err != nil {
			return nil, err
		}
		pr.pt.Map(pr.enclNext+enclave.VAddr(i*enclave.PageBytes), f)
	}
	pr.encl = e
	return e, nil
}

// Translate resolves a virtual address (tests and tools).
func (pr *Process) Translate(va enclave.VAddr) (dram.Addr, bool) {
	return pr.pt.Translate(va)
}

// Repage models an EPC paging round trip (EWB + ELDU) on the enclave page
// backing va: the page is evicted to unprotected backing store and reloaded
// into a different physical EPC frame, so its versions line now maps to a
// different MEE cache set — exactly the event that silently invalidates a
// previously discovered eviction set. CPU-cache lines of the old frame are
// invalidated (dirty ones written back through the MEE first), the page
// table is remapped, and the old frame is returned to the allocator.
//
// Page contents are not copied: attack code only ever measures access
// timing on EPC pages, never data values, and a freshly mapped frame reads
// as an initialized (zero, MAC-valid) page.
//
// The fault is applied at simulated time `now`; the cost to the faulting
// thread is modeled separately via Thread.Preempt.
func (p *Platform) Repage(pr *Process, va enclave.VAddr, now sim.Cycles) error {
	base := va &^ (enclave.PageBytes - 1)
	old, ok := pr.pt.Translate(base)
	if !ok {
		return fmt.Errorf("platform: Repage at unmapped VA %#x", va)
	}
	if pr.encl == nil || p.epc.Owner(old) != pr.encl.ID {
		return fmt.Errorf("platform: Repage at %#x: not an EPC page of %s", va, pr.name)
	}
	fresh, err := p.epc.Realloc(old)
	if err != nil {
		return err
	}
	// EWB invalidates every cached line of the evicted frame.
	for off := 0; off < enclave.PageBytes; off += 64 {
		victim, _ := p.caches.Flush(old + dram.Addr(off))
		if victim != nil && victim.Dirty {
			if _, _, err := p.mee.WriteData(now, p.rng, victim.Addr, victim.Data); err != nil {
				return fmt.Errorf("platform: Repage writeback: %w", err)
			}
		}
	}
	pr.pt.Map(base, fresh)
	return nil
}

// StartTimerThread spawns the Figure 2(c) helper: a thread of pr outside
// enclave mode (on the sibling hyperthread in the paper's setup) that
// continuously stores the time-stamp counter into ordinary shared memory.
// It returns the virtual address an enclave-mode thread of the same
// process reads timestamps from. The thread runs until the engine closes.
//
// Thread.TimerNow models the same mechanism analytically (quantized clock,
// fixed read cost) and is what the attack code uses; the explicit actor
// exists to validate that model — see TestTimerThreadMatchesAnalyticModel.
func (p *Platform) StartTimerThread(pr *Process, core int) enclave.VAddr {
	va := pr.AllocGeneral(1)
	p.SpawnThread("timer-thread", pr, core, func(th *Thread) {
		for {
			v := th.Rdtsc()
			th.WriteU64(va, uint64(v))
		}
	})
	return va
}

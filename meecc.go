// Package meecc is a full, simulator-backed reproduction of "A Novel Covert
// Channel Attack Using Memory Encryption Engine Cache" (Han & Kim, DAC
// 2019): the first covert channel over the MEE cache, the small shared
// cache inside Intel SGX's Memory Encryption Engine that holds recently
// verified integrity-tree lines.
//
// Because the attack needs SGX hardware with cycle-accurate timing, this
// library substitutes a deterministic discrete-event simulation of the
// whole memory subsystem — cores, L1/L2/LLC with clflush, DRAM, the MEE
// with a real (AES-based) encryption and counter-tree integrity pipeline,
// and the SGX runtime restrictions (no rdtsc or hugepages in enclaves,
// OCALL costs, the hyperthread timer). Timing is calibrated to the paper's
// published numbers; see DESIGN.md for the substitution argument.
//
// The facade re-exports the library surface:
//
//   - machine and experiment configuration: Options, DefaultOptions;
//   - the covert channel (Algorithm 2): ChannelConfig,
//     DefaultChannelConfig, RunChannel;
//   - reverse engineering (§4): MeasureCapacity, ReverseEngineer,
//     FindEvictionSet;
//   - characterization (§5.1): CharacterizeLatency;
//   - the Prime+Probe baseline (§5.2): RunPrimeProbe;
//   - the evaluation axes (§5.4): PaperWindows for Figure 7 and NoiseKind
//     for Figure 8; cmd/figures runs both figures as experiment grids of
//     RunChannel trials;
//   - extensions: MitigationStudy, EvictionStudy;
//   - robustness: FaultConfig (deterministic fault injection) and
//     RunResilient, the adaptive session layer that survives it, run on
//     the same ChannelConfig as RunChannel.
//
// The channel's geometry is fixed, as in the paper: trojan, spy and noise
// run on distinct physical cores (0, 2 and 1) and both sides use the first
// 512 B unit of each page.
//
// Quickstart (see examples/quickstart):
//
//	cfg := meecc.DefaultChannelConfig(42)
//	cfg.Bits = meecc.BitsFromString("HELLO")
//	res, err := meecc.RunChannel(cfg)
//	// res.Received, res.ErrorRate, res.KBps ...
//
// Every run is reproducible bit-for-bit given its seed.
package meecc

import (
	"meecc/internal/core"
	"meecc/internal/enclave"
	"meecc/internal/fault"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// Cycles counts simulated CPU cycles (4 GHz by default, as on the paper's
// i7-6700K).
type Cycles = sim.Cycles

// Options selects the simulated machine an experiment runs on.
type Options = core.Options

// ChannelConfig parameterizes a covert-channel run.
type ChannelConfig = core.ChannelConfig

// ChannelResult reports a covert-channel run.
type ChannelResult = core.ChannelResult

// CapacityResult is the Figure 4 dataset.
type CapacityResult = core.CapacityResult

// CapacityPoint is one Figure 4 point.
type CapacityPoint = core.CapacityPoint

// Organization is the reverse-engineered MEE cache configuration.
type Organization = core.Organization

// Algorithm1Result is the output of eviction-address-set discovery.
type Algorithm1Result = core.Algorithm1Result

// LatencyResult is the Figure 5 dataset.
type LatencyResult = core.LatencyResult

// PrimeProbeResult is the Figure 6(a) dataset.
type PrimeProbeResult = core.PrimeProbeResult

// NoiseKind selects a Figure 8 background environment.
type NoiseKind = core.NoiseKind

// MitigationResult is one row of the mitigation ablation.
type MitigationResult = core.MitigationResult

// EvictionStudyResult is one row of the eviction-phase ablation.
type EvictionStudyResult = core.EvictionStudyResult

// AllocMode controls EPC physical-frame contiguity.
type AllocMode = enclave.AllocMode

// Platform is the simulated machine (exposed for advanced use: writing
// custom actors against the Thread API).
type Platform = platform.Platform

// Thread is a simulated hardware thread (the attack-code "ISA").
type Thread = platform.Thread

// Noise environments (Figure 8).
const (
	NoiseNone   = core.NoiseNone
	NoiseMemory = core.NoiseMemory
	NoiseMEE512 = core.NoiseMEE512
	NoiseMEE4K  = core.NoiseMEE4K
)

// EPC allocation modes.
const (
	AllocSequential = enclave.AllocSequential
	AllocShuffled   = enclave.AllocShuffled
	AllocChunked    = enclave.AllocChunked
)

// DefaultOptions returns the paper-testbed machine options for a seed.
func DefaultOptions(seed uint64) Options { return core.DefaultOptions(seed) }

// DefaultChannelConfig returns the paper's operating point (15000-cycle
// window, two-phase eviction).
func DefaultChannelConfig(seed uint64) ChannelConfig {
	return core.DefaultChannelConfig(seed)
}

// RunChannel executes one covert-channel session end to end.
func RunChannel(cfg ChannelConfig) (*ChannelResult, error) { return core.RunChannel(cfg) }

// RunPrimeProbe executes the §5.2 Prime+Probe baseline.
func RunPrimeProbe(cfg ChannelConfig) (*PrimeProbeResult, error) { return core.RunPrimeProbe(cfg) }

// MeasureCapacity runs the §4.1 capacity experiment (Figure 4).
func MeasureCapacity(opts Options, sizes []int, trials int) (*CapacityResult, error) {
	return core.MeasureCapacity(opts, sizes, trials)
}

// ReverseEngineer recovers the MEE cache organization (§4).
func ReverseEngineer(opts Options, trials int) (*Organization, *CapacityResult, *Algorithm1Result, error) {
	return core.ReverseEngineer(opts, trials)
}

// CharacterizeLatency runs the §5.1 latency characterization (Figure 5).
func CharacterizeLatency(opts Options, samplesPerStride int) (*LatencyResult, error) {
	return core.CharacterizeLatency(opts, samplesPerStride)
}

// PaperWindows returns Figure 7's window sizes.
func PaperWindows() []Cycles { return core.PaperWindows() }

// MitigationStudy runs the channel against hardened MEE-cache variants
// (extension of §5.5).
func MitigationStudy(opts Options, window Cycles, nbits int) []MitigationResult {
	return core.MitigationStudy(opts, window, nbits)
}

// EvictionStudy isolates Algorithm 2's eviction mechanism per replacement
// policy and phase count (§5.3 ablation).
func EvictionStudy(opts Options, policy string, twoPhase bool, windows int) (*EvictionStudyResult, error) {
	return core.EvictionStudy(opts, policy, twoPhase, windows)
}

// LLCChannelResult reports the classic LLC Prime+Probe covert channel —
// the baseline attack family the paper positions the MEE channel against.
type LLCChannelResult = core.LLCChannelResult

// AttackFootprint is the detector-visible statistics of a transmission.
type AttackFootprint = core.AttackFootprint

// StealthRow is one row of the stealth comparison.
type StealthRow = core.StealthRow

// RunLLCChannel executes a classic LLC Prime+Probe covert channel (outside
// enclaves, with hugepages and rdtsc — everything SGX takes away). A cfg
// that sets Noise or Fault is refused with an error.
func RunLLCChannel(cfg ChannelConfig) (*LLCChannelResult, error) {
	return core.RunLLCChannel(cfg)
}

// StealthStudy contrasts the MEE channel's detector-visible footprint with
// an LLC Prime+Probe channel's (§1/§5.5 stealth argument, quantified).
func StealthStudy(opts Options, window Cycles, nbits int) ([]StealthRow, error) {
	return core.StealthStudy(opts, window, nbits)
}

// ParallelResult reports a multi-lane channel run.
type ParallelResult = core.ParallelResult

// RunParallelChannel drives the multi-lane extension: k trojan threads on
// distinct cores transmit k bits per window to one spy (future work beyond
// the paper; doubles the bit rate on the 4-core testbed). A cfg that sets
// Fault is refused with an error.
func RunParallelChannel(cfg ChannelConfig, lanes int) (*ParallelResult, error) {
	return core.RunParallelChannel(cfg, lanes)
}

// InBandResult reports a transfer with in-band synchronization.
type InBandResult = core.InBandResult

// RunInBandChannel runs the channel without an agreed transmission start:
// the trojan repeats a framed transmission (preamble + sync word +
// payload) and the spy locks onto it by phase-sweeping its probe grid.
func RunInBandChannel(cfg ChannelConfig) (*InBandResult, error) {
	return core.RunInBandChannel(cfg)
}

// FaultKind enumerates the deterministic fault injectors (thread migration,
// timer jitter/drift, EPC paging, MEE-cache flushes, noise storms).
type FaultKind = fault.Kind

// FaultConfig selects which faults to inject into a run and how hard; the
// schedule is a pure function of its seed.
type FaultConfig = fault.Config

// FaultEvent is one scheduled fault occurrence, echoed back in results.
type FaultEvent = fault.Event

// Fault kinds.
const (
	FaultMigration = fault.Migration
	FaultTimer     = fault.Timer
	FaultPaging    = fault.Paging
	FaultMEEFlush  = fault.MEEFlush
	FaultStorm     = fault.Storm
)

// AllFaultKinds returns every fault kind.
func AllFaultKinds() []FaultKind { return fault.AllKinds() }

// ResilientResult reports an adaptive session: the payload (when delivered),
// goodput, and the degradation report of every control action taken.
type ResilientResult = core.ResilientResult

// DegradationReport is the ordered log of control actions a resilient
// session took (retransmissions, recalibrations, resyncs, window widening,
// repetition coding, aborts).
type DegradationReport = core.DegradationReport

// ActionKind labels one control action in a DegradationReport.
type ActionKind = core.ActionKind

// Control actions the adaptive session layer can take.
const (
	ActRetransmit  = core.ActRetransmit
	ActRecalibrate = core.ActRecalibrate
	ActResync      = core.ActResync
	ActWidenWindow = core.ActWidenWindow
	ActRepetition  = core.ActRepetition
	ActBackoff     = core.ActBackoff
	ActAbort       = core.ActAbort
)

// RunResilient transmits payload through the adaptive session layer:
// chunked ARQ with per-chunk CRC, pilot-based link-health probing,
// threshold recalibration, eviction-set re-acquisition, and graceful
// degradation (window widening, then repetition coding). cfg supplies the
// machine, base window, noise and fault campaign; the payload defines the
// bits. It either delivers a CRC-intact payload or returns an explicit
// degradation error — never a silently corrupted result.
func RunResilient(cfg ChannelConfig, payload []byte) (*ResilientResult, error) {
	return core.RunResilient(cfg, payload)
}

// DetectionRow reports one workload's visibility to the HPC attack monitor.
type DetectionRow = core.DetectionRow

// DetectionStudy runs a CacheShield-style per-set LLC eviction monitor
// against the MEE channel, the LLC Prime+Probe channel, and a benign
// control — the paper's stealth claim as an operational detector.
func DetectionStudy(opts Options, window Cycles, nbits int) ([]DetectionRow, error) {
	return core.DetectionStudy(opts, window, nbits)
}

// ActivityResult reports the victim-activity inference experiment.
type ActivityResult = core.ActivityResult

// InferActivity runs the side-channel-direction extension: a spy infers
// when a victim enclave is in a memory-intensive phase from the latency of
// the spy's own protected accesses (shared-MEE contention).
func InferActivity(opts Options, epochs int, epochLen Cycles) (*ActivityResult, error) {
	return core.InferActivity(opts, epochs, epochLen)
}

// OverheadRow characterizes SGX memory-protection cost per working set.
type OverheadRow = core.OverheadRow

// MeasureOverhead measures enclave-vs-plain uncached read latency across
// working-set sizes (substrate validation: the well-known SGX slowdown
// curve, growing once the MEE cache no longer covers the working set).
func MeasureOverhead(opts Options, workingSets []int, samples int) ([]OverheadRow, error) {
	return core.MeasureOverhead(opts, workingSets, samples)
}

// TimingMechanismResult is one row of the §3 time-source comparison.
type TimingMechanismResult = core.TimingMechanismResult

// TimingStudy compares the enclave time sources of Figure 2 (§3): rdtsc,
// OCALL-based rdtsc, and the hyperthread timer (analytic and actor-backed).
func TimingStudy(opts Options, samples int) ([]TimingMechanismResult, error) {
	return core.TimingStudy(opts, samples)
}

// AlternatingBits returns '0101...' of length n.
func AlternatingBits(n int) []byte { return core.AlternatingBits(n) }

// PatternBits repeats a '0'/'1' pattern string to n bits.
func PatternBits(pattern string, n int) []byte { return core.PatternBits(pattern, n) }

// RandomBits returns n seeded random bits.
func RandomBits(seed uint64, n int) []byte { return core.RandomBits(seed, n) }

// BitsFromString encodes a byte string as bits, LSB first per byte — a
// convenient payload format for the examples.
func BitsFromString(s string) []byte {
	out := make([]byte, 0, len(s)*8)
	for _, b := range []byte(s) {
		for i := 0; i < 8; i++ {
			out = append(out, (b>>i)&1)
		}
	}
	return out
}

// StringFromBits decodes BitsFromString's encoding; trailing partial bytes
// are dropped.
func StringFromBits(bits []byte) string {
	n := len(bits) / 8
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		var b byte
		for j := 0; j < 8; j++ {
			b |= (bits[i*8+j] & 1) << j
		}
		out[i] = b
	}
	return string(out)
}

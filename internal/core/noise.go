package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// NoiseKind selects one of the §5.4 background environments (Figure 8).
type NoiseKind int

const (
	// NoiseNone: quiet machine (Figure 8a).
	NoiseNone NoiseKind = iota
	// NoiseMemory: a neighbor stressing ordinary memory and caches hard —
	// the stress-ng analogue (Figure 8b). The MEE is not involved, so the
	// paper (and this model) expect minimal impact.
	NoiseMemory
	// NoiseMEE512: a neighbor enclave streaming through its own protected
	// memory at 512 B stride, constantly loading fresh versions lines into
	// the MEE cache (Figure 8c).
	NoiseMEE512
	// NoiseMEE4K: the same at 4 KB stride, churning versions and L0 lines
	// (Figure 8d).
	NoiseMEE4K
)

func (k NoiseKind) String() string {
	switch k {
	case NoiseNone:
		return "none"
	case NoiseMemory:
		return "memory-stress"
	case NoiseMEE512:
		return "mee-stride-512B"
	case NoiseMEE4K:
		return "mee-stride-4KB"
	default:
		return fmt.Sprintf("NoiseKind(%d)", int(k))
	}
}

// spawnNoise starts the background actor for kind on the given core,
// beginning at cycle `from`; NoiseNone starts nothing. The actor runs until
// the engine is closed.
func spawnNoise(plat *platform.Platform, kind NoiseKind, core int, from sim.Cycles) error {
	switch kind {
	case NoiseNone:
		return nil
	case NoiseMemory:
		pr := plat.NewProcess("noise-mem")
		const pages = 2048 // 8 MB working set: thrashes the LLC
		buf := pr.AllocGeneral(pages)
		plat.SpawnThreadAt("noise-mem", pr, core, from, func(th *platform.Thread) {
			for {
				for off := 0; off < pages*enclave.PageBytes; off += 64 {
					th.Access(buf + enclave.VAddr(off))
				}
			}
		})
		return nil
	case NoiseMEE512, NoiseMEE4K:
		stride := 512
		if kind == NoiseMEE4K {
			stride = enclave.PageBytes
		}
		pr := plat.NewProcess("noise-mee")
		const pages = 1024 // 4 MB of protected memory
		if _, err := pr.CreateEnclave(pages); err != nil {
			return err
		}
		base := pr.Enclave().Base
		plat.SpawnThreadAt("noise-mee", pr, core, from, func(th *platform.Thread) {
			th.EnterEnclave()
			for {
				for off := 0; off < pages*enclave.PageBytes; off += stride {
					va := base + enclave.VAddr(off)
					th.AccessFlush(va)
					// A real workload computes between touches; back-to-back
					// streaming would model a pathological worst case.
					th.Spin(500)
				}
			}
		})
		return nil
	default:
		return fmt.Errorf("core: unknown noise kind %d", kind)
	}
}

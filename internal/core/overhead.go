package core

import (
	"meecc/internal/enclave"
	"meecc/internal/platform"
)

// OverheadRow characterizes the cost of SGX memory protection for one
// working-set size: the mean latency of enclave (MEE-protected) versus
// ordinary reads over the same access pattern. This substrate-validation
// experiment reproduces the well-known SGX result that protected accesses
// cost a small multiple of ordinary ones, with the multiple growing once
// the working set exceeds what the MEE cache covers.
type OverheadRow struct {
	WorkingSetBytes int
	PlainCycles     float64
	EnclaveCycles   float64
}

// Slowdown is the enclave/plain latency ratio.
func (r OverheadRow) Slowdown() float64 {
	if r.PlainCycles == 0 {
		return 0
	}
	return r.EnclaveCycles / r.PlainCycles
}

// MeasureOverhead sweeps working sets (bytes; must be multiples of 4 KB)
// and measures mean uncached read latency inside and outside an enclave.
// Accesses stride 512 B (one versions line each) and are flushed, so every
// read takes the memory path — isolating the MEE's contribution.
func MeasureOverhead(opts Options, workingSets []int, samples int) ([]OverheadRow, error) {
	if len(workingSets) == 0 {
		workingSets = []int{32 << 10, 256 << 10, 2 << 20, 16 << 20}
	}
	plat := opts.boot()
	defer plat.Close()

	maxWS := 0
	for _, ws := range workingSets {
		if ws > maxWS {
			maxWS = ws
		}
	}
	pr := plat.NewProcess("overhead")
	if _, err := pr.CreateEnclave(maxWS / enclave.PageBytes); err != nil {
		return nil, err
	}
	plainBuf := pr.AllocGeneral(maxWS / enclave.PageBytes)
	enclBuf := pr.Enclave().Base

	rows := make([]OverheadRow, len(workingSets))
	plat.SpawnThread("overhead", pr, 0, func(th *platform.Thread) {
		// Warm the working set with one pass, then measure a second pass:
		// small sets keep their versions lines MEE-cached between passes,
		// large sets have thrashed them out and walk deeper.
		measure := func(base enclave.VAddr, ws int) float64 {
			stride := 512
			if ws/stride > samples {
				stride = (ws/samples + 511) &^ 511
			}
			n := ws / stride
			for i := 0; i < n; i++ {
				th.AccessFlush(base + enclave.VAddr(i*stride))
			}
			var total int64
			for i := 0; i < n; i++ {
				va := base + enclave.VAddr(i*stride)
				r := th.AccessFlush(va)
				total += int64(r.Lat)
			}
			return float64(total) / float64(n)
		}
		for i, ws := range workingSets {
			rows[i].WorkingSetBytes = ws
			rows[i].PlainCycles = measure(plainBuf, ws)
		}
		th.EnterEnclave()
		for i, ws := range workingSets {
			rows[i].EnclaveCycles = measure(enclBuf, ws)
		}
	})
	plat.Run(-1)
	return rows, nil
}

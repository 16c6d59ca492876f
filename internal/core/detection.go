package core

import (
	"fmt"

	"meecc/internal/detect"
	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// DetectionRow reports one workload's visibility to the HPC-based attack
// monitor (detect.Monitor).
type DetectionRow struct {
	Workload  string
	AlarmRate float64
	PeakShare float64
	// ChannelError is the covert channel's error rate while monitored
	// (n/a for the benign control).
	ChannelError float64
}

// detectionSampleEvery is the monitor's observation window.
const detectionSampleEvery = 100_000

// attachDetector spawns the monitor actor sampling the LLC over the
// transmission interval and returns the monitor for inspection.
func attachDetector(plat *platform.Platform, t0, tEnd sim.Cycles) *detect.Monitor {
	mon := detect.NewMonitor(detect.DefaultConfig(), plat.Caches().LLC())
	plat.Engine().SpawnAt("hpc-monitor", t0, func(p *sim.Proc) {
		for now := t0; now < tEnd; now += detectionSampleEvery {
			p.SleepUntil(now + detectionSampleEvery)
			mon.Sample()
		}
	})
	return mon
}

// DetectionStudy runs the CacheShield-style monitor against three
// workloads — the MEE covert channel, the LLC Prime+Probe covert channel,
// and a benign memory-intensive control — and reports alarm rates. The
// expected outcome is the paper's stealth claim operationalized: the LLC
// channel alarms on essentially every window, the MEE channel and the
// benign workload on none.
func DetectionStudy(opts Options, window sim.Cycles, nbits int) ([]DetectionRow, error) {
	bits := RandomBits(opts.Seed, nbits)
	var rows []DetectionRow

	// MEE covert channel under monitoring (retry setup failures under a
	// fresh seed, as an attacker would).
	{
		var mon *detect.Monitor
		res, err := runChannelRetrying(opts, window, bits, func(plat *platform.Platform, t0, tEnd sim.Cycles) {
			mon = attachDetector(plat, t0, tEnd)
		})
		if err != nil {
			return nil, fmt.Errorf("core: detection study (mee): %w", err)
		}
		rows = append(rows, DetectionRow{
			Workload:     "mee-cache-channel",
			AlarmRate:    mon.AlarmRate(),
			PeakShare:    mon.PeakShare,
			ChannelError: res.ErrorRate,
		})
	}

	// LLC Prime+Probe channel under monitoring.
	{
		var mon *detect.Monitor
		cfg := DefaultChannelConfig(opts.Seed + 1)
		cfg.Options = opts
		cfg.Options.Seed = opts.Seed + 1
		cfg.Bits = bits
		cfg.onPlatform = func(plat *platform.Platform, t0, tEnd sim.Cycles) {
			mon = attachDetector(plat, t0, tEnd)
		}
		res, err := RunLLCChannel(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: detection study (llc): %w", err)
		}
		rows = append(rows, DetectionRow{
			Workload:     "llc-prime-probe",
			AlarmRate:    mon.AlarmRate(),
			PeakShare:    mon.PeakShare,
			ChannelError: res.ErrorRate,
		})
	}

	// Benign control: a memory-hungry but honest workload.
	{
		plat := Options{Seed: opts.Seed + 2}.boot()
		pr := plat.NewProcess("benign")
		const pages = 4096 // 16 MB working set
		buf := pr.AllocGeneral(pages)
		span := sim.Cycles(nbits) * window
		plat.SpawnThread("benign", pr, 0, func(th *platform.Thread) {
			va := buf
			for th.Now() < span+200_000 {
				th.Access(va)
				va += 64
				if va >= buf+enclave.VAddr(pages*enclave.PageBytes) {
					va = buf
				}
			}
		})
		mon := attachDetector(plat, 0, span)
		plat.Run(span + 200_000)
		plat.Close()
		rows = append(rows, DetectionRow{
			Workload:  "benign-memory-stress",
			AlarmRate: mon.AlarmRate(),
			PeakShare: mon.PeakShare,
		})
	}
	return rows, nil
}

// Run the covert channel once in each of the four noise environments of
// Figure 8 (quiet, memory/cache stress, and two MEE-thrashing neighbors)
// and print each run's error bits next to the paper's.
//
//	go run ./examples/noisy-channel
package main

import (
	"fmt"
	"log"

	"meecc"
)

func main() {
	envs := []struct {
		kind  meecc.NoiseKind
		paper string
	}{
		{meecc.NoiseNone, "1"},
		{meecc.NoiseMemory, "~1"},
		{meecc.NoiseMEE512, "4"},
		{meecc.NoiseMEE4K, "5"},
	}
	fmt.Println("128-bit '100100...' transmission, 15000-cycle windows, one run per environment:")
	fmt.Println()
	fmt.Printf("  %-18s %-16s %s\n", "environment", "error bits", "paper")
	for i, env := range envs {
		// Each environment runs on its own sampled machine, as in Figure 8.
		cfg := meecc.DefaultChannelConfig(3 + uint64(i)*104729)
		cfg.Bits = meecc.PatternBits("100", 128)
		cfg.Noise = env.kind
		res, err := meecc.RunChannel(cfg)
		if err != nil {
			log.Fatalf("%v: %v", env.kind, err)
		}
		fmt.Printf("  %-18s %-16s %s\n", env.kind,
			fmt.Sprintf("%2d (%.1f%%)", res.BitErrors, 100*res.ErrorRate), env.paper)
	}
	fmt.Println()
	fmt.Println("for means over many runs: go run ./cmd/figures -fig 8 -trials 100")
}

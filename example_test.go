package meecc_test

import (
	"fmt"

	"meecc"
)

// The quickest path: send a few bytes between two simulated enclaves at
// the paper's operating point.
func ExampleRunChannel() {
	cfg := meecc.DefaultChannelConfig(42)
	cfg.Bits = meecc.BitsFromString("HI")
	res, err := meecc.RunChannel(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Println(meecc.StringFromBits(res.Received))
	fmt.Printf("%.1f KBps\n", res.KBps)
	// Output:
	// HI
	// 33.3 KBps
}

// Reverse engineering recovers the paper's §4 result.
func ExampleReverseEngineer() {
	org, _, _, err := meecc.ReverseEngineer(meecc.DefaultOptions(13), 10)
	if err != nil {
		panic(err)
	}
	fmt.Println(org)
	// Output:
	// 64 KB, 8-way set-associative, 128 sets of 64 B lines
}

// The bit pattern helpers encode payloads for the raw channel.
func ExampleBitsFromString() {
	bits := meecc.BitsFromString("A") // 0x41, LSB first
	fmt.Println(bits)
	// Output:
	// [1 0 0 0 0 0 1 0]
}

// The adaptive session layer sends a payload in CRC-framed, FEC-coded
// chunks and retransmits any chunk whose checksum fails.
func ExampleRunResilient() {
	res, err := meecc.RunResilient(meecc.DefaultChannelConfig(404), []byte("key"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s (delivered: %v, retransmits: %d)\n", res.Payload, res.Delivered, res.Report.Retransmits)
	// Output:
	// key (delivered: true, retransmits: 0)
}

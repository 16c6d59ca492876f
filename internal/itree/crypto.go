package itree

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"

	"meecc/internal/dram"
)

// Crypto holds the MEE's per-boot keys and implements the confidentiality
// and integrity primitives: AES-128 counter-mode encryption of data lines
// keyed by (address, version), CBC-MAC-based PD_Tags over ciphertext, and
// embedded MACs over counter lines keyed by the covering counter. CBC-MAC is
// secure here because every MAC'd message has the same fixed length.
//
// The scratch fields keep every block operation allocation-free: slices of
// a method-local array passed through the cipher.Block interface escape to
// the heap, which at millions of MACs per simulated transmission dominated
// the allocator. Methods are therefore not safe for concurrent use — fine
// here, because a Crypto belongs to one platform and the simulation engine
// serializes all actors.
type Crypto struct {
	enc cipher.Block // data encryption key
	mac cipher.Block // MAC key (independent)

	ctrBlock [16]byte // AES-CTR input scratch
	ctrKS    [16]byte // AES-CTR keystream scratch
	macAcc   [16]byte // CBC-MAC accumulator scratch
	macBody  [64]byte // NodeMAC serialized-counters scratch
}

// NewCrypto derives the engine's working keys from a 16-byte master key
// (a fresh random key per simulated boot, which the machine's seed fixes:
// a decoded snapshot draws it again rather than storing it).
func NewCrypto(master [16]byte) *Crypto {
	encKey := deriveKey(master, 0x01)
	macKey := deriveKey(master, 0x02)
	eb, err := aes.NewCipher(encKey[:])
	if err != nil {
		panic(err)
	}
	mb, err := aes.NewCipher(macKey[:])
	if err != nil {
		panic(err)
	}
	return &Crypto{enc: eb, mac: mb}
}

// Clone returns a Crypto with the same keys but its own scratch buffers.
// The cipher.Block values are stateless and safely shared; the scratch is
// what makes a Crypto single-threaded, so forked platforms running on other
// goroutines each need their own.
func (c *Crypto) Clone() *Crypto {
	return &Crypto{enc: c.enc, mac: c.mac}
}

func deriveKey(master [16]byte, label byte) [16]byte {
	b, err := aes.NewCipher(master[:])
	if err != nil {
		panic(err)
	}
	var in, out [16]byte
	in[0] = label
	b.Encrypt(out[:], in[:])
	return out
}

// xcryptLine applies the AES-CTR keystream derived from (addr, version) to a
// 64-byte line; encryption and decryption are the same operation.
func (c *Crypto) xcryptLine(addr dram.Addr, version uint64, in [LineSize]byte) [LineSize]byte {
	var out [LineSize]byte
	block, ks := c.ctrBlock[:], c.ctrKS[:]
	for i := 0; i < LineSize/16; i++ {
		binary.LittleEndian.PutUint64(block[0:], uint64(addr))
		binary.LittleEndian.PutUint64(block[8:], version<<8|uint64(i))
		c.enc.Encrypt(ks, block)
		for j := 0; j < 16; j++ {
			out[i*16+j] = in[i*16+j] ^ ks[j]
		}
	}
	return out
}

// EncryptLine encrypts a plaintext data line under its address and version.
func (c *Crypto) EncryptLine(addr dram.Addr, version uint64, plain [LineSize]byte) [LineSize]byte {
	return c.xcryptLine(addr, version, plain)
}

// DecryptLine decrypts a ciphertext data line under its address and version.
func (c *Crypto) DecryptLine(addr dram.Addr, version uint64, ct [LineSize]byte) [LineSize]byte {
	return c.xcryptLine(addr, version, ct)
}

// cbcMAC computes a truncated CBC-MAC over header || body under the MAC key.
func (c *Crypto) cbcMAC(h0, h1 uint64, body []byte) uint64 {
	acc := c.macAcc[:]
	binary.LittleEndian.PutUint64(acc[0:], h0)
	binary.LittleEndian.PutUint64(acc[8:], h1)
	c.mac.Encrypt(acc, acc)
	for off := 0; off < len(body); off += 16 {
		for j := 0; j < 16; j++ {
			acc[j] ^= body[off+j]
		}
		c.mac.Encrypt(acc, acc)
	}
	return binary.LittleEndian.Uint64(acc[:8])
}

// DataMAC computes the PD_Tag for a data line: a MAC binding the line's
// address, its current version, and its ciphertext.
func (c *Crypto) DataMAC(addr dram.Addr, version uint64, ct [LineSize]byte) uint64 {
	return c.cbcMAC(uint64(addr)|1<<63, version, ct[:])
}

// NodeMAC computes the embedded MAC of a counter line (versions or L0..L2):
// it binds the line's DRAM address, the value of the covering counter one
// level up, and the line's eight counters. A stale or tampered line fails
// verification because the covering counter has moved on.
func (c *Crypto) NodeMAC(addr dram.Addr, parentCounter uint64, counters [CountersPerLine]uint64) uint64 {
	body := c.macBody[:]
	for i, v := range counters {
		binary.LittleEndian.PutUint64(body[i*8:], v)
	}
	return c.cbcMAC(uint64(addr), parentCounter, body)
}

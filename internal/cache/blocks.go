package cache

import (
	"fmt"
	"slices"
)

// Blocks gives each set one fixed-size block of values, materialized on the
// set's first write and allocated chunkBlocks at a time. A set never
// written reads as the empty block NewBlocks was given, so building a
// directory and copying one cost only its per-set indexes, whatever it
// holds. A snapshot and its clones share blocks copy-on-write, and each
// copies only the sets it writes.
//
// dir[s] is the index of set s's block: block i starts at element
// i&offsetMask of chunks[i>>offsetBits], except that chunks[0] holds only
// the empty block, index 0, which is never written. Indexes grow in the
// order blocks are materialized. Blocks at index owned or above were
// materialized since the directory last started a generation, in chunks no
// other directory holds, and are written in place; any lower block may be
// shared, so a write copies it to a fresh slot first. A generation starts
// on a fresh chunk, so no two directories ever write the same chunk.
// Indexes are plain words and chunks few, so a clone copies no pointers
// per set.
type Blocks[T any] struct {
	size   int
	dir    []uint32
	chunks [][]T
	next   uint32 // index the next materialized block takes
	owned  uint32 // lowest index written in place
}

// Blocks are allocated chunkBlocks at a time. A block index carries its
// chunk above offsetBits and its first value's offset in the chunk below,
// so finding a block takes no multiply.
const (
	chunkBlocks = 64
	offsetBits  = 16
	offsetMask  = 1<<offsetBits - 1
	// maxChunks bounds a directory's chunks so that every chunk number,
	// and the start of the chunk after the last, fits in an index.
	maxChunks = 1<<(32-offsetBits) - 1
)

// NewBlocks returns a directory of sets blocks that all read as empty,
// which the directory keeps and never writes. It panics on an empty block
// or one too large for a chunk's offsets.
func NewBlocks[T any](sets int, empty []T) Blocks[T] {
	if len(empty) == 0 || chunkBlocks*len(empty) > offsetMask+1 {
		panic(fmt.Sprintf("cache: block of %d values outside 1..%d", len(empty), (offsetMask+1)/chunkBlocks))
	}
	b := Blocks[T]{size: len(empty), dir: make([]uint32, sets), chunks: [][]T{empty}}
	b.newGeneration()
	return b
}

// newGeneration makes every block b holds shared: b writes none of them in
// place again, and its next block starts a chunk of its own.
func (b *Blocks[T]) newGeneration() {
	b.chunks = slices.Clip(b.chunks)
	b.owned = uint32(len(b.chunks)) << offsetBits
	b.next = b.owned
}

// at returns block i.
func (b *Blocks[T]) at(i uint32) []T {
	o := int(i & offsetMask)
	return b.chunks[i>>offsetBits][o : o+b.size]
}

// Read returns set's block for reading. It must not be written.
func (b *Blocks[T]) Read(set int) []T { return b.at(b.dir[set]) }

// Write returns set's block for writing, first copying it to the next free
// slot unless b owns it.
func (b *Blocks[T]) Write(set int) []T {
	i := b.dir[set]
	if i >= b.owned {
		return b.at(i)
	}
	n := b.next
	if int(n>>offsetBits) == len(b.chunks) {
		if len(b.chunks) == maxChunks {
			panic("cache: block directory has no index left for another chunk")
		}
		b.chunks = append(b.chunks, make([]T, chunkBlocks*b.size))
	}
	if b.next += uint32(b.size); int(b.next&offsetMask) == chunkBlocks*b.size {
		b.next = (b.next>>offsetBits + 1) << offsetBits
	}
	b.dir[set] = n
	blk := b.at(n)
	copy(blk, b.at(i))
	return blk
}

// Clone returns a directory holding the same blocks, shared copy-on-write.
// Clone only reads b, so clones of one frozen directory may be taken
// concurrently; b itself must not be written afterwards (use Snapshot for
// a directory that keeps being written).
func (b *Blocks[T]) Clone() Blocks[T] {
	n := *b
	n.dir = slices.Clone(b.dir)
	n.newGeneration()
	return n
}

// Snapshot returns a frozen clone of b and moves b to a new generation, so
// b may keep being written: it copies each block before its first write,
// leaving the clone intact.
func (b *Blocks[T]) Snapshot() Blocks[T] {
	n := b.Clone()
	b.newGeneration()
	return n
}

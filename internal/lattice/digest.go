package lattice

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Digest is the 32-byte content address of a Set. It is an incremental
// multiset accumulator in the LtHash style: each item is hashed once
// with SHA-256 under a domain-separated, length-prefixed framing, and
// the set digest is the lane-wise sum (four little-endian uint64 lanes,
// each mod 2^64) of the item hashes. Summation makes the digest
// order-independent and *incrementally maintainable*: joining a delta
// of d new items into a set of n items costs O(d) hash work, not O(n),
// which is what keeps per-operation identity cost flat as Accepted_set
// grows with history.
//
// Two distinct sets map to distinct digests under the usual
// collision-resistance assumption for additive SHA-256 accumulators
// (the same class of assumption the paper already makes for its
// signatures; a production deployment would widen the accumulator state
// à la LtHash-2048). Everything that previously keyed maps or signature
// preimages by the O(total-bytes) canonical string now keys by Digest.
type Digest [32]byte

// EmptyDigest is the digest of ⊥ (the zero accumulator).
var EmptyDigest Digest

// add folds one item hash into the accumulator (lane-wise sum).
func (d *Digest) add(h [32]byte) {
	for i := 0; i < len(d); i += 8 {
		lane := binary.LittleEndian.Uint64(d[i:]) + binary.LittleEndian.Uint64(h[i:])
		binary.LittleEndian.PutUint64(d[i:], lane)
	}
}

// sub takes one item hash out of the accumulator (lane-wise difference,
// mod 2^64): the exact inverse of add, so dropping items from a set
// costs their hashes only.
func (d *Digest) sub(h [32]byte) {
	for i := 0; i < len(d); i += 8 {
		lane := binary.LittleEndian.Uint64(d[i:]) - binary.LittleEndian.Uint64(h[i:])
		binary.LittleEndian.PutUint64(d[i:], lane)
	}
}

// Hex renders the digest as 64 lowercase hex characters.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Short renders the first 8 hex characters (log/event labels).
func (d Digest) Short() string { return hex.EncodeToString(d[:4]) }

// String implements fmt.Stringer.
func (d Digest) String() string { return d.Hex() }

// itemHashTag domain-separates item hashes.
const itemHashTag = "bgla/item/v1|"

// itemHash hashes one item with domain separation; the author and body
// are length-delimited so no two items share a preimage. The preimage
// is assembled in a stack buffer (only a body longer than the buffer
// spills to the heap) and hashed in one call, so hashing allocates
// nothing per item.
func itemHash(it Item) [32]byte {
	var buf [256]byte
	b := append(buf[:0], itemHashTag...)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(it.Author)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(it.Body)))
	b = append(b, it.Body...)
	return sha256.Sum256(b)
}

// digestOf accumulates a digest over a sorted, duplicate-free slice.
func digestOf(items []Item) Digest {
	var d Digest
	for _, it := range items {
		d.add(itemHash(it))
	}
	return d
}

// Package ident defines process identities shared by every layer of the
// repository: the lattice values are tagged by their disclosing process,
// protocol messages carry sender/destination identities, and every
// transport routes messages between identities.
package ident

import (
	"fmt"
	"math/bits"
	"slices"
)

// ProcessID identifies one process of the system P = {p_0 ... p_{n-1}}.
// Identifiers are dense small integers so they can index per-process
// bookkeeping arrays directly.
type ProcessID int32

// None is the zero-ish sentinel for "no process"; valid processes are >= 0.
const None ProcessID = -1

// String implements fmt.Stringer ("p3").
func (p ProcessID) String() string { return fmt.Sprintf("p%d", int32(p)) }

// Valid reports whether p denotes an actual process (non-negative).
func (p ProcessID) Valid() bool { return p >= 0 }

// Range returns the identifiers p0..p_{n-1}.
func Range(n int) []ProcessID {
	ids := make([]ProcessID, n)
	for i := range ids {
		ids[i] = ProcessID(i)
	}
	return ids
}

// Set is a set of process identifiers, kept as a bitset over the dense
// IDs: members 0-63 live in an inline word, so a set held by value in
// an n <= 64 cluster allocates nothing, and higher members in a slice
// of words that grows to the largest member. Memory is proportional to
// that member, so callers add only IDs known to belong to the system
// (authenticated senders, verified signers), never raw wire fields. The
// zero value is empty and ready to use. Sets are used for ack
// bookkeeping where quorum sizes are counted over distinct senders.
type Set struct {
	lo uint64   // members 0..63
	hi []uint64 // hi[i] holds members 64(i+1) .. 64(i+1)+63
}

// NewSet returns a set containing the given members.
func NewSet(members ...ProcessID) *Set {
	s := &Set{}
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// word returns the word holding p and p's bit in it, growing the set
// when grow is set; it returns nil when p is absent and grow is unset.
func (s *Set) word(p ProcessID, grow bool) (*uint64, uint64) {
	if p < 0 {
		if grow {
			panic(fmt.Sprintf("ident: %d is not a process ID", int32(p)))
		}
		return nil, 0
	}
	bit := uint64(1) << (uint(p) % 64)
	if p < 64 {
		return &s.lo, bit
	}
	i := int(p)/64 - 1
	if i >= len(s.hi) {
		if !grow {
			return nil, 0
		}
		s.hi = append(s.hi, make([]uint64, i+1-len(s.hi))...)
	}
	return &s.hi[i], bit
}

// Add inserts p and reports whether it was newly added. It panics on a
// negative p.
func (s *Set) Add(p ProcessID) bool {
	w, bit := s.word(p, true)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// Has reports membership.
func (s *Set) Has(p ProcessID) bool {
	w, bit := s.word(p, false)
	return w != nil && *w&bit != 0
}

// Len returns the number of members.
func (s *Set) Len() int {
	n := bits.OnesCount64(s.lo)
	for _, w := range s.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clear removes all members, retaining the allocation.
func (s *Set) Clear() {
	s.lo = 0
	clear(s.hi)
}

// Members returns the members in ascending order.
func (s *Set) Members() []ProcessID {
	out := make([]ProcessID, 0, s.Len())
	out = appendBits(out, s.lo, 0)
	for i, w := range s.hi {
		out = appendBits(out, w, 64*(i+1))
	}
	return out
}

// appendBits appends base+i for every set bit i of w, lowest first.
func appendBits(out []ProcessID, w uint64, base int) []ProcessID {
	for w != 0 {
		out = append(out, ProcessID(base+bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return out
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	return &Set{lo: s.lo, hi: slices.Clone(s.hi)}
}

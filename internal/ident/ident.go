// Package ident defines process identities shared by every layer of the
// repository: the lattice values are tagged by their disclosing process,
// protocol messages carry sender/destination identities, and every
// transport routes messages between identities.
package ident

import (
	"fmt"
	"sort"
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

// Set is a small set of process identifiers. The zero value is empty and
// ready to use. Sets are used for ack bookkeeping where quorum sizes are
// counted over distinct senders.
type Set struct {
	members map[ProcessID]struct{}
}

// NewSet returns a set containing the given members.
func NewSet(members ...ProcessID) *Set {
	s := &Set{}
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Add inserts p and reports whether it was newly added.
func (s *Set) Add(p ProcessID) bool {
	if s.members == nil {
		s.members = make(map[ProcessID]struct{})
	}
	if _, ok := s.members[p]; ok {
		return false
	}
	s.members[p] = struct{}{}
	return true
}

// Has reports membership.
func (s *Set) Has(p ProcessID) bool {
	_, ok := s.members[p]
	return ok
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.members) }

// Clear removes all members, retaining the allocation.
func (s *Set) Clear() {
	for k := range s.members {
		delete(s.members, k)
	}
}

// Members returns the members in ascending order.
func (s *Set) Members() []ProcessID {
	out := make([]ProcessID, 0, len(s.members))
	for m := range s.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := NewSet()
	for m := range s.members {
		c.Add(m)
	}
	return c
}

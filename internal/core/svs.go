package core

import (
	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// SVS is the Safe-values Set of one process (WTS Alg 1): the values
// delivered by the disclosure-phase reliable broadcast. It tracks
//
//   - the single value attributed to each discloser (Observation 1:
//     reliable broadcast yields at most one value per process), and
//   - the union of all disclosed items, against which the SAFE()
//     predicate tests message elements.
type SVS struct {
	byDiscloser map[ident.ProcessID]lattice.Set
	union       lattice.Set
}

// NewSVS returns an empty tracker.
func NewSVS() *SVS {
	return &SVS{byDiscloser: make(map[ident.ProcessID]lattice.Set)}
}

// Add records the value disclosed by discloser; it reports false (and
// changes nothing) if the discloser already disclosed, which the
// reliable broadcast prevents for a single tag but a defensive layer
// still enforces.
func (s *SVS) Add(discloser ident.ProcessID, v lattice.Set) bool {
	if _, dup := s.byDiscloser[discloser]; dup {
		return false
	}
	s.byDiscloser[discloser] = v
	s.union = s.union.Union(v)
	return true
}

// Count returns the number of disclosers seen (the init_counter of
// Alg 1 line 14).
func (s *SVS) Count() int { return len(s.byDiscloser) }

// Union returns the union of all disclosed values.
func (s *SVS) Union() lattice.Set { return s.union }

// Safe implements the SAFE() predicate: the element is a subset of the
// disclosed item universe (Alg 1 lines 35-39).
func (s *SVS) Safe(element lattice.Set) bool { return element.SubsetOf(s.union) }

// Value returns the value disclosed by p, if any.
func (s *SVS) Value(p ident.ProcessID) (lattice.Set, bool) {
	v, ok := s.byDiscloser[p]
	return v, ok
}

// RoundSVS is the per-round Safe-values Set array of GWTS (Alg 3 line 2).
// The safe universe of round r is cumulative — the union of everything
// disclosed in rounds 0..r — because Proposed_set accumulates across
// rounds (Alg 3 line 18), so round-r proposals legitimately contain
// earlier values (DESIGN.md §2 note 2).
type RoundSVS struct {
	rounds []*SVS        // per-round disclosures
	cum    []lattice.Set // cum[r] = union of rounds 0..r
}

// NewRoundSVS returns an empty tracker.
func NewRoundSVS() *RoundSVS { return &RoundSVS{} }

func (rs *RoundSVS) grow(round int) {
	for len(rs.rounds) <= round {
		rs.rounds = append(rs.rounds, NewSVS())
		prev := lattice.Empty()
		if n := len(rs.cum); n > 0 {
			prev = rs.cum[n-1]
		}
		rs.cum = append(rs.cum, prev)
	}
}

// Add records discloser's round-r value; false on duplicate (same
// discloser, same round) or on a round frozen by Trim.
func (rs *RoundSVS) Add(round int, discloser ident.ProcessID, v lattice.Set) bool {
	if round < 0 {
		return false
	}
	rs.grow(round)
	if rs.rounds[round] == nil || !rs.rounds[round].Add(discloser, v) {
		return false
	}
	for r := round; r < len(rs.cum); r++ {
		rs.cum[r] = rs.cum[r].Union(v)
	}
	return true
}

// Count returns the number of disclosers in round r (Counter[r]).
func (rs *RoundSVS) Count(round int) int {
	if round < 0 || round >= len(rs.rounds) || rs.rounds[round] == nil {
		return 0
	}
	return rs.rounds[round].Count()
}

// Seed injects a checkpoint-certified value into every cumulative safe
// universe (internal/compact): the certificate proves the value is
// quorum-committed, i.e. accepted by ≥ f+1 correct acceptors whose
// SAFEA guards had already covered it, so treating it as disclosed is
// exactly the Lemma 12 filtering transferred by proof instead of by
// replayed disclosures. A lagging replica that missed the original
// disclosure broadcasts becomes able to process messages over the
// certified prefix.
func (rs *RoundSVS) Seed(round int, v lattice.Set) {
	rs.grow(max(round, 0))
	rs.eachUniverse(0, func(u lattice.Set) lattice.Set { return u.Union(v) })
}

// Install applies a checkpoint install to the safe universes in one
// pass: rounds before the cutoff are frozen first — their disclosure
// maps are dropped and their universes alias the cutoff's, which is
// sound for the uniformly-used SAFEA predicate because safety is
// monotone in the universe (DESIGN.md §2 note 1) — and then every
// distinct universe is seeded with the certified value v (see Seed)
// and re-anchored on its base, so each is touched once.
func (rs *RoundSVS) Install(round, before int, v lattice.Set, base *lattice.Base) {
	rs.grow(max(round, 0))
	cut := min(before, len(rs.cum))
	for r := 0; r < cut; r++ {
		rs.rounds[r] = nil
		if r < cut-1 {
			rs.cum[r] = rs.cum[cut-1]
		}
	}
	rs.eachUniverse(0, func(u lattice.Set) lattice.Set { return u.Union(v).TryRebase(base) })
}

// RebaseTail re-anchors only the most recent cumulative universes on
// base (pure representation change). The hot-path predicate SAFEA only
// consults the last entry, so re-anchoring the whole history at every
// local anchor advance is wasted work — older entries keep their old
// representation and straggler SafeAt lookups over them fall back to
// the mixed-representation paths, which stay correct.
func (rs *RoundSVS) RebaseTail(base *lattice.Base, tail int) {
	rs.eachUniverse(max(len(rs.cum)-tail, 0), func(u lattice.Set) lattice.Set { return u.TryRebase(base) })
}

// eachUniverse replaces the cumulative universes from round `from` on
// by fn of themselves. Frozen prefixes alias one shared universe, so
// fn runs once per run of equal digests and the run shares its result:
// the cost follows the distinct universes, not the round count.
func (rs *RoundSVS) eachUniverse(from int, fn func(lattice.Set) lattice.Set) {
	var lastIn, lastOut lattice.Set
	for r := from; r < len(rs.cum); r++ {
		if r > from && rs.cum[r].Digest() == lastIn.Digest() {
			rs.cum[r] = lastOut
			continue
		}
		lastIn = rs.cum[r]
		rs.cum[r] = fn(rs.cum[r])
		lastOut = rs.cum[r]
	}
}

// SafeAt implements SAFE() at round r: element ⊆ ⋃_{r'≤r} SvS[r'].
func (rs *RoundSVS) SafeAt(round int, element lattice.Set) bool {
	if element.IsEmpty() {
		return true
	}
	if round < 0 {
		return false
	}
	if round >= len(rs.cum) {
		round = len(rs.cum) - 1
	}
	if round < 0 {
		return false
	}
	return element.SubsetOf(rs.cum[round])
}

// SafeAny implements the acceptor's SAFEA(): ∃r with element ⊆ SvS-cum[r],
// equivalent to safety at the highest populated round.
func (rs *RoundSVS) SafeAny(element lattice.Set) bool {
	return rs.SafeAt(len(rs.cum)-1, element)
}

// UnionAt returns the cumulative safe universe of round r.
func (rs *RoundSVS) UnionAt(round int) lattice.Set {
	if round < 0 || len(rs.cum) == 0 {
		return lattice.Empty()
	}
	if round >= len(rs.cum) {
		round = len(rs.cum) - 1
	}
	return rs.cum[round]
}

// MaxRound returns the highest round with any disclosure, or -1.
func (rs *RoundSVS) MaxRound() int { return len(rs.rounds) - 1 }

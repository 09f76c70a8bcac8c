package core

import (
	"errors"
	"testing"
	"testing/quick"

	identpkg "bgla/internal/ident"
	"bgla/internal/lattice"
)

func TestMaxFaulty(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 3: 0, 4: 1, 6: 1, 7: 2, 10: 3, 100: 33}
	for n, want := range cases {
		if got := MaxFaulty(n); got != want {
			t.Errorf("MaxFaulty(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestAckQuorumIntersection(t *testing.T) {
	// Property: for every legal (n, f), two ack quorums intersect in at
	// least f+1 processes, i.e. at least one correct process, and n-f
	// correct processes can always form a quorum.
	for n := 1; n <= 60; n++ {
		for f := 0; 3*f+1 <= n; f++ {
			q := AckQuorum(n, f)
			if inter := 2*q - n; inter < f+1 {
				t.Fatalf("n=%d f=%d: quorums intersect in %d < f+1", n, f, inter)
			}
			if n-f < q {
				t.Fatalf("n=%d f=%d: correct processes (%d) cannot form quorum (%d)", n, f, n-f, q)
			}
			if cf := CorrectAckFloor(n, f); q-f > cf {
				t.Fatalf("n=%d f=%d: CorrectAckFloor too small", n, f)
			}
		}
	}
}

func TestValidateConfig(t *testing.T) {
	if err := ValidateConfig(4, 1); err != nil {
		t.Fatalf("4/1 must be valid: %v", err)
	}
	if err := ValidateConfig(3, 1); !errors.Is(err, ErrTooFewProcesses) {
		t.Fatalf("3/1 must violate the bound, got %v", err)
	}
	if err := ValidateConfig(0, 0); err == nil {
		t.Fatal("n=0 must be invalid")
	}
	if err := ValidateConfig(4, -1); err == nil {
		t.Fatal("negative f must be invalid")
	}
	if err := ValidateConfig(1, 0); err != nil {
		t.Fatalf("1/0 must be valid: %v", err)
	}
}

func TestReadQuorum(t *testing.T) {
	if ReadQuorum(2) != 3 {
		t.Fatal("ReadQuorum(2) != 3")
	}
}

func TestSVSBasics(t *testing.T) {
	s := NewSVS()
	v0 := lattice.FromStrings(0, "a")
	v1 := lattice.FromStrings(1, "b")
	if !s.Add(0, v0) || !s.Add(1, v1) {
		t.Fatal("fresh adds must succeed")
	}
	if s.Add(0, lattice.FromStrings(0, "other")) {
		t.Fatal("duplicate discloser must be rejected")
	}
	if s.Count() != 2 {
		t.Fatalf("Count = %d", s.Count())
	}
	if !s.Safe(v0) || !s.Safe(v0.Union(v1)) {
		t.Fatal("disclosed elements must be safe")
	}
	if s.Safe(lattice.FromStrings(2, "x")) {
		t.Fatal("undisclosed element must be unsafe")
	}
	if got, ok := s.Value(1); !ok || !got.Equal(v1) {
		t.Fatal("Value lookup failed")
	}
	if _, ok := s.Value(9); ok {
		t.Fatal("Value for unknown process must miss")
	}
	if !s.Safe(lattice.Empty()) {
		t.Fatal("⊥ is always safe")
	}
}

func TestRoundSVSCumulativeSafety(t *testing.T) {
	rs := NewRoundSVS()
	v0 := lattice.FromStrings(0, "r0")
	v1 := lattice.FromStrings(1, "r1")
	rs.Add(0, 0, v0)
	rs.Add(1, 1, v1)
	if !rs.SafeAt(0, v0) {
		t.Fatal("round-0 value safe at round 0")
	}
	if rs.SafeAt(0, v1) {
		t.Fatal("round-1 value must not be safe at round 0")
	}
	if !rs.SafeAt(1, v0.Union(v1)) {
		t.Fatal("cumulative union must be safe at round 1")
	}
	if !rs.SafeAny(v0.Union(v1)) {
		t.Fatal("SafeAny must accept the cumulative union")
	}
	if rs.SafeAny(lattice.FromStrings(9, "never")) {
		t.Fatal("never-disclosed element must be unsafe")
	}
	if rs.Count(0) != 1 || rs.Count(1) != 1 || rs.Count(7) != 0 {
		t.Fatal("per-round counts wrong")
	}
	if rs.MaxRound() != 1 {
		t.Fatalf("MaxRound = %d", rs.MaxRound())
	}
}

func TestRoundSVSBackfillUpdatesLaterRounds(t *testing.T) {
	// A late disclosure for an early round must become safe for all
	// later rounds too (cumulative property under out-of-order arrival).
	rs := NewRoundSVS()
	late := lattice.FromStrings(2, "late")
	rs.Add(3, 0, lattice.FromStrings(0, "x"))
	if rs.SafeAt(3, late) {
		t.Fatal("not yet disclosed")
	}
	rs.Add(1, 2, late)
	if !rs.SafeAt(3, late) || !rs.SafeAt(1, late) {
		t.Fatal("backfilled disclosure must be safe from its round onward")
	}
	if rs.SafeAt(0, late) {
		t.Fatal("backfilled disclosure must stay unsafe before its round")
	}
}

func TestRoundSVSDuplicatePerRound(t *testing.T) {
	rs := NewRoundSVS()
	if !rs.Add(0, 0, lattice.FromStrings(0, "a")) {
		t.Fatal("first add")
	}
	if rs.Add(0, 0, lattice.FromStrings(0, "b")) {
		t.Fatal("same discloser same round must be rejected")
	}
	if !rs.Add(1, 0, lattice.FromStrings(0, "b")) {
		t.Fatal("same discloser next round must succeed")
	}
	if rs.Add(-1, 0, lattice.Empty()) {
		t.Fatal("negative round rejected")
	}
}

func TestRoundSVSEmptyTracker(t *testing.T) {
	rs := NewRoundSVS()
	if rs.SafeAny(lattice.FromStrings(0, "x")) {
		t.Fatal("empty tracker: nothing non-empty is safe")
	}
	if !rs.SafeAny(lattice.Empty()) {
		t.Fatal("empty element is vacuously safe")
	}
	if !rs.UnionAt(5).IsEmpty() {
		t.Fatal("UnionAt on empty tracker")
	}
	if rs.MaxRound() != -1 {
		t.Fatal("MaxRound on empty tracker")
	}
}

func TestAckTallyQuorums(t *testing.T) {
	tal := NewAckTally()
	v := lattice.FromStrings(0, "v")
	if got := tal.Add(1, v, 0, 2, 0); got != 1 {
		t.Fatalf("first add count = %d", got)
	}
	if got := tal.Add(1, v, 0, 2, 0); got != 1 {
		t.Fatalf("duplicate sender must not double count: %d", got)
	}
	tal.Add(2, v, 0, 2, 0)
	tal.Add(3, v, 0, 2, 0)
	if tal.Count(v, 0, 2, 0) != 3 {
		t.Fatal("Count mismatch")
	}
	// Different tuple dimensions are independent.
	if tal.Count(v, 0, 3, 0) != 0 || tal.Count(v, 1, 2, 0) != 0 || tal.Count(v, 0, 2, 1) != 0 {
		t.Fatal("tuple dimensions leaked")
	}
	entries := tal.AtQuorum(0, 3)
	if len(entries) != 1 || entries[0].Count != 3 || !entries[0].Value.Equal(v) {
		t.Fatalf("AtQuorum = %+v", entries)
	}
	if len(tal.AtQuorum(0, 4)) != 0 {
		t.Fatal("quorum 4 not reached")
	}
	if !tal.RoundReached(0, 3) || tal.RoundReached(1, 1) {
		t.Fatal("RoundReached wrong")
	}
	if !tal.AnyQuorumValue(v, 3) {
		t.Fatal("AnyQuorumValue must find v")
	}
	if tal.AnyQuorumValue(lattice.FromStrings(9, "w"), 1) {
		t.Fatal("AnyQuorumValue must miss unknown values")
	}
}

func TestAckTallyDeterministicOrder(t *testing.T) {
	tal := NewAckTally()
	for i := 0; i < 5; i++ {
		v := lattice.FromStrings(0, string(rune('a'+i)))
		tal.Add(1, v, 0, 0, 0)
	}
	a := tal.AtQuorum(0, 1)
	b := tal.AtQuorum(0, 1)
	if len(a) != 5 || len(b) != 5 {
		t.Fatal("missing entries")
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatal("AtQuorum order must be deterministic")
		}
	}
}

func TestQuickSVSUnionMatchesFold(t *testing.T) {
	f := func(raw []byte) bool {
		s := NewSVS()
		want := lattice.Empty()
		for i, b := range raw {
			v := lattice.FromStrings(0, string('a'+rune(b%7)))
			if s.Add(identpkg.ProcessID(i), v) {
				want = want.Union(v)
			}
		}
		return s.Union().Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundSVSInstall: one install pass freezes the rounds before the
// cutoff onto the cutoff's universe, seeds every universe with the
// certified value and anchors each on the new base, without changing
// what is safe where.
func TestRoundSVSInstall(t *testing.T) {
	rs := NewRoundSVS()
	for r := 0; r < 6; r++ {
		rs.Add(r, 0, lattice.FromStrings(0, string(rune('a'+r))))
	}
	certified := lattice.FromStrings(0, "a", "b", "c").Union(lattice.FromStrings(5, "undisclosed"))
	base := lattice.NewBase(certified)
	rs.Install(4, 3, certified, base)
	if rs.Count(0) != 0 || rs.Count(2) != 0 || rs.Count(3) != 1 {
		t.Fatal("rounds before the cutoff must be frozen, the rest kept")
	}
	if !rs.UnionAt(0).Equal(rs.UnionAt(2)) || !rs.SafeAt(0, lattice.FromStrings(0, "c")) {
		t.Fatal("frozen rounds must alias the cutoff's universe")
	}
	for r := 0; r <= 5; r++ {
		u := rs.UnionAt(r)
		if !certified.SubsetOf(u) || u.Anchor() != base {
			t.Fatalf("round %d universe not seeded and anchored on the base", r)
		}
	}
	if rs.SafeAt(3, lattice.FromStrings(0, "e")) || !rs.SafeAt(4, lattice.FromStrings(0, "e")) {
		t.Fatal("install changed which round a disclosure is safe from")
	}
}

// TestAckTallyRebase: every tuple of a value containing the base, and
// the digest index, end up anchored on it; a value smaller than the
// base is left as it was.
func TestAckTallyRebase(t *testing.T) {
	tal := NewAckTally()
	big := lattice.FromStrings(0, "a", "b", "c", "d")
	small := lattice.FromStrings(0, "a")
	for p := 0; p < 3; p++ {
		tal.Add(identpkg.ProcessID(p), big, 0, uint32(p), 1)
		tal.Add(identpkg.ProcessID(p), small, 0, uint32(p), 0)
	}
	base := lattice.NewBase(lattice.FromStrings(0, "a", "b"))
	tal.Rebase(base)
	for k, v := range tal.values {
		switch k.Dig {
		case big.Digest():
			if v.Anchor() != base || !v.Equal(big) {
				t.Fatal("superset tuple not rebased")
			}
		case small.Digest():
			if v.Anchor() != nil {
				t.Fatal("a value smaller than the base must stay as it was")
			}
		}
	}
	if v, _ := tal.ValueByDigest(big.Digest()); v.Anchor() != base {
		t.Fatal("digest index not rebased")
	}
}

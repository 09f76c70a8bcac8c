package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func seqSet(author int, lo, hi int) Set {
	var items []Item
	for i := lo; i < hi; i++ {
		items = append(items, Item{Author: 1, Body: fmt.Sprintf("a%04d-%d", i, author)})
	}
	return FromItems(items...)
}

// TestItemsAliasing is the regression test for the Items() aliasing
// bug: callers mutating the returned slice must not corrupt the set's
// digest invariant.
func TestItemsAliasing(t *testing.T) {
	s := FromStrings(1, "a", "b", "c")
	want := s.Digest()
	items := s.Items()
	for i := range items {
		items[i].Body = "mutated"
	}
	if s.Digest() != want {
		t.Fatal("mutating Items() result changed the set digest")
	}
	if got := FromItems(s.Items()...); !got.Equal(s) {
		t.Fatalf("set content corrupted by caller mutation: %v != %v", got, s)
	}
	// Window must be a copy too.
	w := s.Window()
	if len(w) > 0 {
		w[0].Body = "mutated"
		if got := FromItems(s.Items()...); !got.Equal(s) {
			t.Fatal("mutating Window() result corrupted the set")
		}
	}
}

func TestRebasePreservesSemantics(t *testing.T) {
	full := seqSet(0, 0, 100)
	prefix := seqSet(0, 0, 60)
	base := NewBase(prefix)

	rb, ok := full.Rebase(base)
	if !ok {
		t.Fatal("rebase of a superset must succeed")
	}
	if rb.Digest() != full.Digest() {
		t.Fatal("rebase changed the digest")
	}
	if rb.Len() != full.Len() {
		t.Fatalf("rebase changed Len: %d != %d", rb.Len(), full.Len())
	}
	if rb.WindowLen() != 40 {
		t.Fatalf("window = %d items, want 40", rb.WindowLen())
	}
	if !rb.Equal(full) || !rb.SubsetOf(full) || !full.SubsetOf(rb) {
		t.Fatal("rebase broke Equal/SubsetOf against the flat form")
	}
	if got := FromItems(rb.Items()...); !got.Equal(full) {
		t.Fatal("Items() of a compacted set must enumerate base + window")
	}
	// Rebase of a non-superset must fail.
	if _, ok := seqSet(0, 0, 10).Rebase(base); ok {
		t.Fatal("rebase must refuse when base ⊄ set")
	}
}

func TestCompactedUnionSameBase(t *testing.T) {
	prefix := seqSet(0, 0, 50)
	base1 := NewBase(prefix)
	base2 := NewBase(prefix) // distinct pointer, same content

	a, _ := seqSet(0, 0, 70).Rebase(base1)
	b, _ := seqSet(0, 0, 60).Union(seqSet(0, 80, 90)).Rebase(base2)

	u := a.Union(b)
	wantFlat := seqSet(0, 0, 70).Union(seqSet(0, 80, 90))
	if !u.Equal(wantFlat) || u.Digest() != wantFlat.Digest() {
		t.Fatalf("same-base-content union wrong: %d items, want %d", u.Len(), wantFlat.Len())
	}
	if _, _, ok := u.BaseInfo(); !ok {
		t.Fatal("same-base union should stay anchored")
	}
	if !a.SubsetOf(u) || !b.SubsetOf(u) {
		t.Fatal("operands must be subsets of their union")
	}
}

func TestCompactedMixedRepresentations(t *testing.T) {
	full := seqSet(0, 0, 100)
	base := NewBase(seqSet(0, 0, 60))
	anchored, _ := full.Rebase(base)

	flatExtra := seqSet(0, 40, 120) // overlaps base AND window, extends both
	u := anchored.Union(flatExtra)
	want := seqSet(0, 0, 120)
	if !u.Equal(want) {
		t.Fatalf("mixed union wrong: len %d want %d", u.Len(), want.Len())
	}
	// Flat ∪ anchored (other operand order) must agree.
	u2 := flatExtra.Union(anchored)
	if !u2.Equal(want) || u2.Digest() != u.Digest() {
		t.Fatal("union not commutative across representations")
	}

	// Subset checks across representations.
	if !seqSet(0, 10, 20).SubsetOf(anchored) {
		t.Fatal("flat ⊆ anchored failed")
	}
	if !anchored.SubsetOf(want) {
		t.Fatal("anchored ⊆ flat failed")
	}
	if anchored.SubsetOf(seqSet(0, 0, 99)) {
		t.Fatal("anchored ⊆ smaller flat must fail")
	}
	if seqSet(0, 200, 201).SubsetOf(anchored) {
		t.Fatal("disjoint flat ⊆ anchored must fail")
	}

	// Contains across the base boundary.
	if !anchored.Contains(Item{Author: 1, Body: "a0005-0"}) {
		t.Fatal("Contains must see base items")
	}
	if !anchored.Contains(Item{Author: 1, Body: "a0095-0"}) {
		t.Fatal("Contains must see window items")
	}
}

func TestCompactedDifferentBases(t *testing.T) {
	baseOld := NewBase(seqSet(0, 0, 30))
	baseNew := NewBase(seqSet(0, 0, 60))

	a, _ := seqSet(0, 0, 80).Rebase(baseNew)
	b, _ := seqSet(0, 0, 40).Union(seqSet(0, 90, 95)).Rebase(baseOld)

	u := a.Union(b)
	want := seqSet(0, 0, 80).Union(seqSet(0, 90, 95))
	if !u.Equal(want) {
		t.Fatalf("cross-base union wrong: len %d want %d", u.Len(), want.Len())
	}
	dig, n, ok := u.BaseInfo()
	if !ok || dig != baseNew.Digest() || n != baseNew.Len() {
		t.Fatal("cross-base union must anchor on the deeper base")
	}
	if !b.SubsetOf(u) || !a.SubsetOf(u) {
		t.Fatal("cross-base union lost items")
	}
}

func TestCompactedMinusDelta(t *testing.T) {
	base := NewBase(seqSet(0, 0, 50))
	anchored, _ := seqSet(0, 0, 70).Rebase(base)
	flat := seqSet(0, 0, 70)

	if d := anchored.Minus(seqSet(0, 0, 65)); len(d) != 5 {
		t.Fatalf("anchored Minus = %d items, want 5", len(d))
	}
	items, ok := anchored.AppendDelta(nil, seqSet(0, 0, 60))
	if !ok || len(items) != 10 {
		t.Fatal("AppendDelta over anchored set wrong")
	}
	if got := ApplyDelta(seqSet(0, 0, 60), items); !got.Equal(flat) {
		t.Fatal("ApplyDelta did not reconstruct")
	}
}

// TestDigestAdditivity pins the accumulator identity the compacted
// representation rests on: a set rebased onto a disjoint base keeps
// the digest of the flat union.
func TestDigestAdditivity(t *testing.T) {
	a, b := seqSet(0, 0, 10), seqSet(0, 10, 20)
	u := a.Union(b)
	rb, ok := u.Rebase(NewBase(a))
	if !ok || rb.Digest() != u.Digest() {
		t.Fatal("rebase onto a disjoint prefix must preserve the union digest")
	}
}

func TestEachMatchesItems(t *testing.T) {
	base := NewBase(seqSet(0, 0, 5))
	s, _ := seqSet(0, 0, 9).Rebase(base)
	var got []Item
	s.Each(func(it Item) bool { got = append(got, it); return true })
	want := s.Items()
	if len(got) != len(want) {
		t.Fatalf("Each yielded %d items, Items %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Each order mismatch at %d", i)
		}
	}
	// Early stop.
	n := 0
	s.Each(func(Item) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Each ignored early stop: %d", n)
	}
}

// TestFilterMatchesFromItems checks Filter against the sort-and-hash
// construction it replaces, on flat and anchored sets, with the dropped
// items in the base, in the window, in both, everywhere or nowhere.
func TestFilterMatchesFromItems(t *testing.T) {
	full := seqSet(0, 0, 40)
	anchored, ok := full.Rebase(NewBase(seqSet(0, 0, 25)))
	if !ok {
		t.Fatal("rebase")
	}
	drop := map[string]func(Item) bool{
		"none":   func(Item) bool { return false },
		"all":    func(Item) bool { return true },
		"base":   func(it Item) bool { return it.Body < "a0010" },
		"window": func(it Item) bool { return it.Body >= "a0030" },
		"both":   func(it Item) bool { return it.Body[4] == '7' },
	}
	for _, s := range []Set{full, anchored} {
		for name, d := range drop {
			var kept []Item
			s.Each(func(it Item) bool {
				if !d(it) {
					kept = append(kept, it)
				}
				return true
			})
			want := FromItems(kept...)
			got := s.Filter(func(it Item) bool { return !d(it) })
			if got.Len() != want.Len() || got.Digest() != want.Digest() ||
				!reflect.DeepEqual(got.Items(), want.Items()) {
				t.Fatalf("%s (anchored=%v): Filter = %v, want %v", name, s.Anchor() != nil, got, want)
			}
			if _, _, anchoredOut := got.BaseInfo(); anchoredOut {
				t.Fatalf("%s: Filter must return a flat set", name)
			}
		}
		if keep := s.Filter(func(Item) bool { return true }); keep.Digest() != s.Digest() {
			t.Fatal("Filter with keep-all changed the digest")
		}
	}
}

// TestEachMergedIsUnion checks the k-way merge against FromItems over
// the concatenation: canonical order, shared items once, mixed shapes.
func TestEachMergedIsUnion(t *testing.T) {
	anchored, _ := seqSet(0, 0, 30).Rebase(NewBase(seqSet(0, 0, 20)))
	sets := []Set{seqSet(1, 0, 10), anchored, Empty(), seqSet(2, 5, 15), seqSet(1, 8, 12)}
	var all, got []Item
	for _, s := range sets {
		all = append(all, s.Items()...)
	}
	EachMerged(sets, func(it Item) bool { got = append(got, it); return true })
	if want := FromItems(all...).Items(); !reflect.DeepEqual(got, want) {
		t.Fatalf("EachMerged = %v, want %v", got, want)
	}
	n := 0
	EachMerged(sets, func(Item) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("EachMerged ignored early stop: %d", n)
	}
	EachMerged(nil, func(Item) bool { t.Fatal("no sets, no items"); return false })
}

// TestQuickAppendDeltaMatchesNaive checks the O(delta) extraction
// against the definitions it replaces, over every operand mix the wire
// codec meets: flat, anchored on one base, anchored on different bases,
// and one side of each. AppendDelta must succeed exactly when base ⊆ s —
// so a failed digest identity implies !base.SubsetOf(s) and a passed
// one never admits a non-subset — and then return s \ base in canonical
// order, i.e. what the naive merge walk returns. Sets are large enough
// (hundreds of items, deltas of a few) that the galloping path runs.
func TestQuickAppendDeltaMatchesNaive(t *testing.T) {
	pick := func(rng *rand.Rand, from, n int) Set {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Author: 1, Body: fmt.Sprintf("k%05d", from+rng.Intn(600))}
		}
		return FromItems(items...)
	}
	naiveMinus := func(s, t Set) []Item {
		var out []Item
		for _, it := range s.Items() {
			if !t.Contains(it) {
				out = append(out, it)
			}
		}
		return out
	}
	f := func(seed int64, shapeS, shapeB, grow uint8, related bool) bool {
		rng := rand.New(rand.NewSource(seed))
		prefix := seqSet(0, 0, 300)
		deep := prefix.Union(seqSet(0, 300, 350))
		anchors := []*Base{nil, NewBase(prefix), NewBase(deep)}
		base := deep.Union(pick(rng, 1000, 200))
		s := deep.Union(pick(rng, 1000, 200))
		if related {
			s = base.Union(pick(rng, 1000, int(grow%8)))
			if grow%16 >= 8 { // not quite a superset: one item of base missing
				its := base.Items()
				drop := deep.Len() + rng.Intn(len(its)-deep.Len()) // beyond every anchor
				s = FromItems(append(its[:drop:drop], its[drop+1:]...)...).Union(pick(rng, 2000, 1+int(grow%8)))
			}
		}
		var ok bool
		if a := anchors[shapeS%3]; a != nil {
			if s, ok = s.Rebase(a); !ok {
				return false
			}
		}
		if a := anchors[shapeB%3]; a != nil {
			if base, ok = base.Rebase(a); !ok {
				return false
			}
		}
		dst := []Item{{Author: 9, Body: "kept"}}
		got, ok := s.AppendDelta(dst, base)
		if ok != base.SubsetOf(s) || len(got) < 1 || got[0] != dst[0] {
			return false
		}
		if !ok {
			return len(got) == 1
		}
		want := naiveMinus(s, base)
		return reflect.DeepEqual(got[1:], append([]Item{}, want...)) &&
			reflect.DeepEqual(append([]Item{}, s.Minus(base)...), append([]Item{}, want...)) &&
			ApplyDelta(base, got[1:]).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// rebaseShapes builds one value and one base per Rebase path: flat,
// already on the base, on the base's previous anchor (the prev/delta
// path), on an older anchor (the checkpoint-chain path), smaller than
// the base, and incomparable with it.
func rebaseShapes(t *testing.T) []struct {
	name string
	s    Set
	base *Base
} {
	t.Helper()
	oldest := NewBase(seqSet(0, 0, 20))
	prev := NewBase(seqSet(0, 0, 40).TryRebase(oldest))
	next := NewBase(seqSet(0, 0, 60).TryRebase(prev)) // chained: next.prev is prev's digest
	if next.prev == nil || *next.prev != prev.Digest() {
		t.Fatal("NewBase of an anchored set must record its chain link")
	}
	anchored := func(s Set, b *Base) Set {
		t.Helper()
		out, ok := s.Rebase(b)
		if !ok {
			t.Fatal("fixture rebase failed")
		}
		return out
	}
	return []struct {
		name string
		s    Set
		base *Base
	}{
		{"flat", seqSet(0, 0, 100), next},
		{"same-anchor", anchored(seqSet(0, 0, 100), next), next},
		{"previous-anchor", anchored(seqSet(0, 0, 100), prev), next},
		{"older-anchor", anchored(seqSet(0, 0, 100), oldest), next},
		{"smaller-than-base", anchored(seqSet(0, 0, 30), oldest), next},
		{"incomparable", anchored(seqSet(0, 0, 50).Union(seqSet(0, 70, 120)), oldest), next},
	}
}

// TestRebaseShapes checks every Rebase path against a Minus-based
// reference: ok iff base ⊆ s, and then the same logical items, length
// and digest, with the window exactly s \ base.
func TestRebaseShapes(t *testing.T) {
	for _, tc := range rebaseShapes(t) {
		t.Run(tc.name, func(t *testing.T) {
			wantOK := len(tc.base.Set().Minus(tc.s)) == 0
			got, ok := tc.s.Rebase(tc.base)
			if ok != wantOK {
				t.Fatalf("ok = %v, want %v", ok, wantOK)
			}
			if !reflect.DeepEqual(got.Items(), tc.s.Items()) || got.Len() != tc.s.Len() || got.Digest() != tc.s.Digest() {
				t.Fatal("rebase changed the logical value")
			}
			if !ok {
				return
			}
			if got.Anchor() != tc.base {
				t.Fatal("rebased set is not anchored on the base")
			}
			if want := tc.s.Minus(tc.base.Set()); !reflect.DeepEqual(got.Window(), append([]Item{}, want...)) {
				t.Fatalf("window = %d items, want s \\ base = %d", got.WindowLen(), len(want))
			}
			if got.TryRebase(tc.base).Anchor() != tc.base {
				t.Fatal("TryRebase lost the anchor")
			}
		})
	}
}

// TestRebaseSmallerThanBaseIsFree: a set smaller than the base cannot
// contain it, so Rebase refuses without walking or allocating — even
// from an older anchor, where the chain path would otherwise build a
// window.
func TestRebaseSmallerThanBaseIsFree(t *testing.T) {
	shapes := rebaseShapes(t)
	tc := shapes[4]
	if tc.name != "smaller-than-base" {
		t.Fatal("fixture order changed")
	}
	var ok bool
	allocs := testing.AllocsPerRun(100, func() { _, ok = tc.s.Rebase(tc.base) })
	if ok || allocs != 0 {
		t.Fatalf("Rebase of a smaller set: ok=%v with %.0f allocs, want false with 0", ok, allocs)
	}
}

// TestSameItems: structural identity only. Equal digests and equal
// logical items over different base objects do not count as "same".
func TestSameItems(t *testing.T) {
	prefix := seqSet(0, 0, 50)
	b1, b2 := NewBase(prefix), NewBase(prefix) // one content, two objects
	a := seqSet(0, 0, 80).TryRebase(b1)
	cases := []struct {
		name string
		x, y Set
		want bool
	}{
		{"itself", a, a, true},
		{"same base, window rebuilt", a, seqSet(0, 0, 80).TryRebase(b1), true},
		{"same items, other base object", a, seqSet(0, 0, 80).TryRebase(b2), false},
		{"same items, flat", a, seqSet(0, 0, 80), false},
		{"same base, other window", a, seqSet(0, 0, 81).TryRebase(b1), false},
		{"both flat, equal", seqSet(0, 0, 80), seqSet(0, 0, 80), true},
		{"both empty", Empty(), Empty(), true},
	}
	for _, tc := range cases {
		if tc.x.Digest() != tc.y.Digest() && tc.want {
			t.Fatalf("%s: fixture digests differ", tc.name)
		}
		if got := SameItems(tc.x, tc.y); got != tc.want {
			t.Errorf("%s: SameItems = %v, want %v", tc.name, got, tc.want)
		}
	}
}

package lattice

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestDigestOrderIndependent(t *testing.T) {
	a := FromItems(it(0, "a"), it(1, "b"), it(2, "c"))
	b := FromItems(it(2, "c"), it(0, "a"), it(1, "b"))
	if a.Digest() != b.Digest() {
		t.Fatal("digest must not depend on construction order")
	}
	if a.Digest() == Empty().Digest() {
		t.Fatal("nonempty set must not share ⊥'s digest")
	}
	if Empty().Digest() != EmptyDigest {
		t.Fatal("⊥ must have the zero digest")
	}
}

// TestQuickIncrementalDigestMatchesRecompute is the core soundness
// property of the accumulator: the digest maintained incrementally
// through arbitrary Union chains equals the digest recomputed from
// scratch over the final item slice.
func TestQuickIncrementalDigestMatchesRecompute(t *testing.T) {
	f := func(x, y, z []byte) bool {
		u := randomSet(x).Union(randomSet(y)).Union(randomSet(z))
		return u.Digest() == digestOf(u.Items()) && u.Digest() == FromItems(u.Items()...).Digest()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSubInvertsAdd: taking an item hash out undoes putting it in,
// lane carries included, whatever the accumulator held before.
func TestQuickSubInvertsAdd(t *testing.T) {
	f := func(x []byte, body string) bool {
		d := randomSet(x).Digest()
		h := itemHash(it(3, body))
		e := d
		e.add(h)
		e.sub(h)
		var z Digest
		z.sub(h) // 0 − h wraps every lane
		z.add(h)
		return e == d && z == EmptyDigest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeltaRoundTrip: ApplyDelta(base, AppendDelta(s, base)) == s
// for every base ⊆ s, and AppendDelta refuses non-subset bases.
func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(x, y []byte) bool {
		base := randomSet(x)
		s := base.Union(randomSet(y)) // base ⊆ s by construction
		items, ok := s.AppendDelta(nil, base)
		if !ok || len(items) != s.Len()-base.Len() {
			return false
		}
		return ApplyDelta(base, items).Equal(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	g := func(x, y []byte) bool {
		a, b := randomSet(x), randomSet(y)
		if a.SubsetOf(b) {
			return true // only the refusal path is under test here
		}
		_, ok := b.AppendDelta(nil, a)
		return !ok
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEqualMatchesItemwise guards the O(1) digest Equal against
// the naive itemwise definition.
func TestQuickEqualMatchesItemwise(t *testing.T) {
	f := func(x, y []byte) bool {
		a, b := randomSet(x), randomSet(y)
		naive := len(a.Items()) == len(b.Items())
		if naive {
			for i := range a.Items() {
				if a.Items()[i] != b.Items()[i] {
					naive = false
					break
				}
			}
		}
		return a.Equal(b) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestHexForms(t *testing.T) {
	d := FromItems(it(3, "xyz")).Digest()
	if len(d.Hex()) != 64 || len(d.Short()) != 8 || d.String() != d.Hex() {
		t.Fatalf("Hex/Short/String forms wrong: %q %q %q", d.Hex(), d.Short(), d.String())
	}
}

func BenchmarkKeyDigest(b *testing.B) {
	items := make([]Item, 2000)
	for i := range items {
		items[i] = it(i%7, "command-body-"+string(rune('a'+i%26))+strconv.Itoa(i))
	}
	s := FromItems(items...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Key()
	}
}

func BenchmarkUnionSingleItemDelta(b *testing.B) {
	items := make([]Item, 2000)
	for i := range items {
		items[i] = it(i%7, "command-body-"+strconv.Itoa(i))
	}
	s := FromItems(items...)
	nv := Singleton(it(9, "new-command"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Union(nv)
	}
}

// goldenSet is a fixed set whose digest is pinned below: authors of
// both signs, an empty body, multi-byte UTF-8 and a body longer than
// itemHash's stack buffer.
func goldenSet() Set {
	return FromItems(
		Item{Author: -1, Body: ""},
		Item{Author: 0, Body: "a"},
		Item{Author: 3, Body: "put|k|v"},
		Item{Author: 7, Body: strings.Repeat("é", 100)},
		Item{Author: 1000, Body: strings.Repeat("x", 5000)},
	)
}

// TestItemHashGolden pins the item hash bytes: digests are signed into
// checkpoint preimages and persisted, so any change to the hashing code
// must reproduce them exactly.
func TestItemHashGolden(t *testing.T) {
	if got, want := goldenSet().Digest().Hex(), "8159d90b6e2bc396a1bf6aadab2deb80a7d46731fcb94e06ec38ce0c09cb70e9"; got != want {
		t.Fatalf("golden set digest = %s, want %s", got, want)
	}
	single := Singleton(Item{Author: 3, Body: "put|k|v"}).Digest().Hex()
	if want := "fa79bc16ee98b729f94af42e25516717cb3874b7f953e60a1309c32903f6d263"; single != want {
		t.Fatalf("single item digest = %s, want %s", single, want)
	}
}

// TestItemHashAllocFree pins itemHash at zero allocations for bodies
// that fit its stack buffer.
func TestItemHashAllocFree(t *testing.T) {
	it := Item{Author: 3, Body: "put|key-00042|value-of-a-typical-size"}
	var sink [32]byte
	if allocs := testing.AllocsPerRun(100, func() { sink = itemHash(it) }); allocs != 0 {
		t.Fatalf("itemHash allocates %.0f times per item, want 0", allocs)
	}
	_ = sink
}

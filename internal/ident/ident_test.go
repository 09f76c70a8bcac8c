package ident

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestProcessIDString(t *testing.T) {
	if got := ProcessID(7).String(); got != "p7" {
		t.Fatalf("String() = %q, want p7", got)
	}
	if None.Valid() {
		t.Fatal("None must not be valid")
	}
	if !ProcessID(0).Valid() {
		t.Fatal("p0 must be valid")
	}
}

func TestRange(t *testing.T) {
	ids := Range(4)
	if len(ids) != 4 {
		t.Fatalf("len = %d, want 4", len(ids))
	}
	for i, id := range ids {
		if id != ProcessID(i) {
			t.Fatalf("ids[%d] = %v", i, id)
		}
	}
	if got := Range(0); len(got) != 0 {
		t.Fatalf("Range(0) = %v, want empty", got)
	}
}

func TestSetBasics(t *testing.T) {
	var s Set // zero value usable
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero set must be empty")
	}
	if !s.Add(3) {
		t.Fatal("first Add must report true")
	}
	if s.Add(3) {
		t.Fatal("duplicate Add must report false")
	}
	s.Add(1)
	s.Add(2)
	got := s.Members()
	want := []ProcessID{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Members() = %v, want %v", got, want)
		}
	}
	c := s.Clone()
	c.Add(9)
	if s.Has(9) {
		t.Fatal("Clone must be independent")
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("Clear must empty the set")
	}
}

func TestSetQuickLenMatchesDistinct(t *testing.T) {
	f := func(raw []uint8) bool {
		s := NewSet()
		distinct := map[ProcessID]bool{}
		for _, r := range raw {
			p := ProcessID(r % 17)
			s.Add(p)
			distinct[p] = true
		}
		return s.Len() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSetBitsetBoundaries walks members on both sides of the inline
// word's edge (63/64) and one far into the overflow words.
func TestSetBitsetBoundaries(t *testing.T) {
	members := []ProcessID{200, 0, 64, 1, 65, 63}
	var s Set
	for i, p := range members {
		if !s.Add(p) {
			t.Fatalf("Add(%v) = false on first insert", p)
		}
		if s.Add(p) {
			t.Fatalf("Add(%v) = true on second insert", p)
		}
		if s.Len() != i+1 {
			t.Fatalf("Len() = %d after %d inserts", s.Len(), i+1)
		}
	}
	for _, tc := range []struct {
		p    ProcessID
		want bool
	}{
		{0, true}, {1, true}, {2, false}, {62, false}, {63, true}, {64, true},
		{65, true}, {66, false}, {127, false}, {128, false}, {199, false},
		{200, true}, {201, false}, {1 << 20, false}, {None, false},
	} {
		if got := s.Has(tc.p); got != tc.want {
			t.Errorf("Has(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	want := []ProcessID{0, 1, 63, 64, 65, 200}
	if got := s.Members(); !slices.Equal(got, want) {
		t.Fatalf("Members() = %v, want %v", got, want)
	}
	c := s.Clone()
	c.Add(100)
	c.Add(2)
	if s.Has(100) || s.Has(2) || s.Len() != len(want) {
		t.Fatal("Clone must not share storage with the original")
	}
	s.Clear()
	if s.Len() != 0 || s.Has(0) || s.Has(200) || len(s.Members()) != 0 {
		t.Fatalf("Clear left %v", s.Members())
	}
	if !c.Has(200) || c.Len() != len(want)+2 {
		t.Fatal("Clear of the original must not touch the clone")
	}
	if !s.Add(200) || !s.Has(200) || s.Len() != 1 {
		t.Fatal("a cleared set must accept members again")
	}
}

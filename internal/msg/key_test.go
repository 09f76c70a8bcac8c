package msg

import (
	"testing"

	"bgla/internal/lattice"
)

func TestKeyOfDistinguishes(t *testing.T) {
	a := Disclosure{Round: 0, Value: lattice.FromStrings(0, "x")}
	b := Disclosure{Round: 0, Value: lattice.FromStrings(0, "y")}
	c := Disclosure{Round: 1, Value: lattice.FromStrings(0, "x")}
	if KeyOf(a) == KeyOf(b) || KeyOf(a) == KeyOf(c) {
		t.Fatal("KeyOf must distinguish different messages")
	}
	if KeyOf(a) != KeyOf(Disclosure{Round: 0, Value: lattice.FromStrings(0, "x")}) {
		t.Fatal("KeyOf must be stable for equal messages")
	}
	// An anchored set keys as its flat value: the base is process-local
	// representation, not content.
	flat := lattice.FromStrings(1, "p", "q", "r", "s")
	anchored, ok := flat.Rebase(lattice.NewBase(lattice.FromStrings(1, "p", "q")))
	if !ok || KeyOf(Decide{Value: anchored}) != KeyOf(Decide{Value: flat}) {
		t.Fatal("KeyOf must not depend on a set's representation")
	}
}

// TestPayloadKeyRBC: the compact key of an RBC wrapper separates every
// field — wrapper kind, source, tag (including tags that contain the
// separator) and payload — and agrees for equal messages.
func TestPayloadKeyRBC(t *testing.T) {
	p := AckB{Accepted: lattice.FromStrings(1, "v"), Dest: 2, TS: 3, Round: 4}
	q := AckB{Accepted: lattice.FromStrings(1, "w"), Dest: 2, TS: 3, Round: 4}
	msgs := []Msg{
		RBCSend{Src: 1, Tag: "t", Payload: p},
		RBCEcho{Src: 1, Tag: "t", Payload: p},
		RBCReady{Src: 1, Tag: "t", Payload: p},
		RBCEcho{Src: 2, Tag: "t", Payload: p},
		RBCEcho{Src: 1, Tag: "u", Payload: p},
		RBCEcho{Src: 1, Tag: "t", Payload: q},
		RBCEcho{Src: 1, Tag: "a|1", Payload: Junk{Blob: "b"}},
		RBCEcho{Src: 1, Tag: "a", Payload: Junk{Blob: "1|b"}},
	}
	seen := map[string]int{}
	for i, m := range msgs {
		k := PayloadKey(m)
		if j, dup := seen[k]; dup {
			t.Fatalf("messages %d and %d share payload key %q", j, i, k)
		}
		seen[k] = i
	}
	if PayloadKey(RBCEcho{Src: 1, Tag: "t", Payload: p}) != PayloadKey(msgs[1]) {
		t.Fatal("PayloadKey must be stable for equal messages")
	}
}

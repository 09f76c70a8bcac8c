package msg

import (
	"testing"

	"bgla/internal/lattice"
)

func TestCkptWireRoundTrip(t *testing.T) {
	set := lattice.FromStrings(2, "a", "b", "c")
	dig := set.Digest()
	sig := CkptSig{Epoch: 3, Round: 7, Len: 3, Dig: dig, Image: []byte{1, 2}, Signer: 1, Sig: []byte{9}}
	cert := CkptCert{Epoch: 3, Round: 7, Len: 3, Dig: dig, Image: []byte{1, 2}, Sigs: []CkptSig{sig}}
	for _, m := range []Msg{
		CkptProp{Epoch: 3, Round: 7, Len: 3, Dig: dig, From: 2},
		sig,
		cert,
		StateReq{Dig: dig},
		StateRep{Cert: cert, Value: set},
	} {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		back, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if back.Kind() != m.Kind() {
			t.Fatalf("kind mismatch: %s != %s", back.Kind(), m.Kind())
		}
		if KeyOf(back) != KeyOf(m) {
			t.Fatalf("%s: round trip not identity:\n%s\n%s", m.Kind(), KeyOf(back), KeyOf(m))
		}
	}
}

// TestStateRepDeltaPin verifies the "rebase onto newest checkpoint"
// encoder behaviour: after a StateRep carries the full prefix, later
// window traffic delta-encodes against it even when the anchor ring
// has churned past it.
func TestStateRepDeltaPin(t *testing.T) {
	var items []lattice.Item
	for i := 0; i < 400; i++ {
		items = append(items, lattice.Item{Author: 1, Body: string(rune('a'+i%26)) + itoa(i)})
	}
	prefix := lattice.FromItems(items...)
	cert := CkptCert{Round: 1, Len: prefix.Len(), Dig: prefix.Digest()}

	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	send := func(m Msg) Msg {
		t.Helper()
		data, err := enc.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, nack, err := dec.Decode(data)
		if err != nil || nack != nil {
			t.Fatalf("decode: %v nack=%v", err, nack)
		}
		return got
	}

	send(StateRep{Cert: cert, Value: prefix})
	// Churn the anchor ring with unrelated small sets.
	for i := 0; i < 8; i++ {
		send(CnfReq{Value: lattice.FromStrings(9, itoa(i))})
	}
	// A superset of the checkpoint must still delta against the pin:
	// measure the frame size.
	ext := prefix.Union(lattice.FromStrings(1, "zzz-new"))
	data, err := enc.Encode(Decide{Value: ext, Round: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := EncodeBinary(Decide{Value: ext, Round: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > len(full)/4 {
		t.Fatalf("frame after checkpoint pin is %d bytes (full %d): not delta-encoded", len(data), len(full))
	}
	got, nack, err := dec.Decode(data)
	if err != nil || nack != nil {
		t.Fatalf("decode pinned delta: %v nack=%v", err, nack)
	}
	if d, ok := got.(Decide); !ok || !d.Value.Equal(ext) {
		t.Fatal("pinned delta did not reconstruct the extended set")
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

package msg

import (
	"testing"

	"bgla/internal/lattice"
)

func sampleSet() lattice.Set {
	return lattice.FromItems(
		lattice.Item{Author: 0, Body: "a"},
		lattice.Item{Author: 2, Body: "b;tricky\"chars"},
	)
}

// roundtrip sends m through the wire codec and back.
func roundtrip(t *testing.T, m Msg) Msg {
	t.Helper()
	data, err := EncodeBinary(m)
	if err != nil {
		t.Fatalf("EncodeBinary(%s): %v", m.Kind(), err)
	}
	out, err := DecodeBinary(data)
	if err != nil {
		t.Fatalf("DecodeBinary(%s): %v", m.Kind(), err)
	}
	if out.Kind() != m.Kind() {
		t.Fatalf("kind changed: %s -> %s", m.Kind(), out.Kind())
	}
	return out
}

func TestRoundtripCoreMessages(t *testing.T) {
	s := sampleSet()
	msgs := []Msg{
		Disclosure{Round: 3, Value: s},
		AckReq{Proposed: s, TS: 7, Round: 1},
		Ack{Accepted: s, TS: 7, Round: 1},
		Nack{Accepted: s, TS: 9, Round: 2},
		AckB{Accepted: s, Dest: 4, TS: 1, Round: 0},
		NewValue{Cmd: lattice.Item{Author: 9, Body: "add(1)"}},
		Decide{Value: s, Round: 5},
		CnfReq{Value: s},
		CnfRep{Value: s},
		Wakeup{Tag: "op0"},
		Junk{Blob: "zzz"},
	}
	for _, m := range msgs {
		got := roundtrip(t, m)
		if KeyOf(got) != KeyOf(m) {
			t.Fatalf("%s roundtrip changed identity:\n  in  %x\n  out %x", m.Kind(), KeyOf(m), KeyOf(got))
		}
	}
}

func TestRoundtripSignatureMessages(t *testing.T) {
	s := sampleSet()
	sv := SignedValue{Author: 1, Round: 2, Value: s, Sig: []byte{1, 2, 3}}
	sa := SafeAck{Round: 2, RcvdKeys: []string{sv.ValueKey()}, Conflicts: []ConflictPair{{X: sv, Y: sv}}, Signer: 3, Sig: []byte{9}}
	msgs := []Msg{
		InitVal{SV: sv},
		SafeReq{Round: 2, Values: []SignedValue{sv}},
		sa,
		AckReqS{Round: 2, Values: []ProofValue{{SV: sv, Proof: []SafeAck{sa}}}, TS: 4},
		AckS{Round: 2, Accepted: s, TS: 4},
		NackS{Round: 2, Values: []ProofValue{{SV: sv}}, TS: 4},
		SignedAck{Accepted: s, Dest: 2, TS: 3, Round: 1, Signer: 0, Sig: []byte{7}},
		DecidedCert{Round: 1, Value: s, Acks: []SignedAck{{Accepted: s, Signer: 1}}},
	}
	for _, m := range msgs {
		got := roundtrip(t, m)
		if KeyOf(got) != KeyOf(m) {
			t.Fatalf("%s roundtrip changed identity", m.Kind())
		}
	}
}

func TestRoundtripRBCNesting(t *testing.T) {
	inner := Disclosure{Round: 1, Value: sampleSet()}
	for _, m := range []Msg{
		RBCSend{Src: 2, Tag: "disc/1", Payload: inner},
		RBCEcho{Src: 2, Tag: "disc/1", Payload: inner},
		RBCReady{Src: 2, Tag: "disc/1", Payload: inner},
	} {
		got := roundtrip(t, m)
		switch v := got.(type) {
		case RBCSend:
			if v.Src != 2 || v.Tag != "disc/1" || KeyOf(v.Payload) != KeyOf(inner) {
				t.Fatalf("RBCSend fields lost: %+v", v)
			}
		case RBCEcho:
			if KeyOf(v.Payload) != KeyOf(inner) {
				t.Fatal("RBCEcho payload lost")
			}
		case RBCReady:
			if KeyOf(v.Payload) != KeyOf(inner) {
				t.Fatal("RBCReady payload lost")
			}
		}
	}
	// Double nesting (an RBC message quoting another) must also survive.
	nested := RBCSend{Src: 1, Tag: "outer", Payload: RBCReady{Src: 0, Tag: "in", Payload: inner}}
	got := roundtrip(t, nested).(RBCSend)
	if _, ok := got.Payload.(RBCReady); !ok {
		t.Fatalf("nested payload type lost: %T", got.Payload)
	}
}

// TestDecodeRejectsGarbage feeds the socket decode path (DeltaDecoder,
// which hands plain frames to DecodeBinary) bytes that are not binary
// frames: text, a JSON envelope as older builds sent it, an unknown
// kind, and a body cut short.
func TestDecodeRejectsGarbage(t *testing.T) {
	valid, err := EncodeBinary(Ack{Accepted: sampleSet(), TS: 1, Round: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"text":          []byte("not a frame"),
		"json envelope": []byte(`{"k":"ack","b":{"Accepted":[],"TS":1,"Round":2}}`),
		"unknown kind":  {BinMagic, 0xEE, 0},
		"cut body":      valid[:len(valid)/2],
	} {
		if m, nack, err := NewDeltaDecoder().Decode(raw); err == nil {
			t.Fatalf("%s: decoded into %#v (nack %v)", name, m, nack)
		}
	}
}

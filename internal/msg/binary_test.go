package msg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"bgla/internal/lattice"
)

// sampleMsgs covers every kind with a binary encoding, including the
// recursive wrappers and the signature-carrying SbS structures.
func sampleMsgs() []Msg {
	set := lattice.FromStrings(3, "a", "bb", "ccc")
	big := lattice.FromStrings(1, "x").Union(lattice.FromStrings(2, "y", "z"))
	sv := SignedValue{Author: 2, Round: 3, Value: set, Sig: []byte{1, 2, 3}}
	sa := SafeAck{Round: 1, RcvdKeys: []string{"k1", "k2"}, Conflicts: []ConflictPair{{X: sv, Y: sv}}, Signer: 4, Sig: []byte{9}}
	pv := ProofValue{SV: sv, Proof: []SafeAck{sa}}
	sack := SignedAck{Accepted: set, Dest: 1, TS: 7, Round: 2, Signer: 3, Sig: []byte{5, 6}}
	ck := CkptSig{Epoch: 1, Round: 8, Len: 3, Dig: set.Digest(), Image: []byte("img"), Signer: 2, Sig: []byte{7}}
	cert := CkptCert{Epoch: 1, Round: 8, Len: 3, Dig: set.Digest(), Image: []byte("img"), Sigs: []CkptSig{ck, ck}}
	return []Msg{
		Disclosure{Round: 4, Value: set},
		AckReq{Proposed: big, TS: 9, Round: 1},
		Ack{Accepted: set, TS: 2, Round: 0},
		Nack{Accepted: lattice.Empty(), TS: 3, Round: 5},
		AckB{Accepted: set, Dest: 2, TS: 11, Round: 6},
		RBCSend{Src: 1, Tag: "t|x", Payload: Disclosure{Round: 2, Value: set}},
		RBCEcho{Src: 2, Tag: "", Payload: AckB{Accepted: big, Dest: 0, TS: 1, Round: 3}},
		RBCReady{Src: 3, Tag: "ready", Payload: Decide{Value: set, Round: 1}},
		NewValue{Cmd: lattice.Item{Author: 5, Body: "body"}},
		Decide{Value: big, Round: 12},
		CnfReq{Value: set},
		CnfRep{Value: big},
		InitVal{SV: sv},
		SafeReq{Round: 2, Values: []SignedValue{sv, sv}},
		sa,
		AckReqS{Round: 1, Values: []ProofValue{pv}, TS: 4},
		AckS{Round: 2, Accepted: set, TS: 5},
		NackS{Round: 3, Values: []ProofValue{pv, pv}, TS: 6},
		sack,
		DecidedCert{Round: 4, Value: big, Acks: []SignedAck{sack, sack}},
		Wakeup{Tag: "tick"},
		Junk{Blob: "garbage\x00ÿ"},
		ShardMsg{Shard: 3, Inner: RBCEcho{Src: 1, Tag: "s", Payload: Ack{Accepted: set, TS: 1, Round: 2}}},
		CkptProp{Epoch: 1, Round: 9, Len: 3, Dig: set.Digest(), From: 2},
		ck,
		cert,
		StateReq{Dig: big.Digest()},
		StateRep{Cert: cert, Value: big},
		DeltaNack{Seq: 77},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		raw, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		if !IsBinaryFrame(raw) {
			t.Fatalf("%T: frame does not start with magic", m)
		}
		back, err := DecodeBinary(raw)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if normalize(m) != normalize(back) {
			t.Fatalf("%T: round trip mismatch:\n  in:  %#v\n  out: %#v", m, m, back)
		}
	}
}

// normalize renders a message with its type and every field, sets by
// their items and nil and empty slices alike, so comparisons see wire
// equivalence, not representation details (digest memos, anchors).
func normalize(m Msg) string { return fmt.Sprintf("%T%+v", m, m) }

func TestBinaryRejectsHostileInputs(t *testing.T) {
	valid, err := EncodeBinary(AckB{Accepted: lattice.FromStrings(1, "x", "y"), Dest: 1, TS: 2, Round: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{},
		{BinMagic},
		{BinMagic, 0},
		{BinMagic, 250},
		{'{'},
		valid[:len(valid)-1],          // truncated
		append(bytes.Clone(valid), 0), // trailing byte
		{BinMagic, binDisclosure, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // huge count
		{BinMagic, binCkptCert, 0, 0, 0},                           // truncated digest
		{BinMagic, binDeltaFrame, 1},                               // stateless delta frame
		{BinMagic, binStateRep, BinMagic, binJunk, 0},              // wrong nested kind
	}
	for i, c := range cases {
		if m, err := DecodeBinary(c); err == nil {
			t.Fatalf("case %d: decoded hostile input into %#v", i, m)
		}
	}
}

func TestBinaryDeltaFrameRoundTrip(t *testing.T) {
	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	bodies := make([]string, 64)
	for i := range bodies {
		bodies[i] = fmt.Sprintf("history-item-%04d", i)
	}
	base := lattice.FromStrings(1, bodies...)
	grown := base.Union(lattice.FromStrings(2, "d"))

	// First frame travels full (no anchor yet) and seeds both caches.
	f1, err := enc.AppendEncode(nil, Ack{Accepted: base, TS: 1, Round: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	m1, nack, err := dec.Decode(f1)
	if err != nil || nack != nil {
		t.Fatalf("full frame: m=%v nack=%v err=%v", m1, nack, err)
	}
	// Second frame should delta-encode against the anchored base.
	f2, err := enc.AppendEncode(nil, Ack{Accepted: grown, TS: 2, Round: 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) >= len(f1)/2 {
		t.Fatalf("expected delta frame much smaller than full: full=%d delta=%d", len(f1), len(f2))
	}
	m2, nack, err := dec.Decode(f2)
	if err != nil || nack != nil {
		t.Fatalf("delta frame: nack=%v err=%v", nack, err)
	}
	got := m2.(Ack).Accepted
	if got.Digest() != grown.Digest() {
		t.Fatalf("reconstructed set mismatch: %v vs %v", got, grown)
	}

	// Unknown base on a fresh decoder nacks, and the encoder serves the
	// retained message for retransmission.
	fresh := NewDeltaDecoder()
	_, nack, err = fresh.Decode(f2)
	if err != nil || nack == nil {
		t.Fatalf("expected nack from fresh decoder, got err=%v", err)
	}
	if _, ok := enc.HandleNack(*nack); !ok {
		t.Fatal("encoder did not retain nacked frame")
	}
}

func TestBinaryEncodeAllocs(t *testing.T) {
	// m is declared as the interface so the conversion happens once; the
	// transport also holds messages as Msg, so this is the hot shape.
	var m Msg = AckB{Accepted: lattice.FromStrings(1, "aaaa", "bbbb", "cccc", "dddd"), Dest: 2, TS: 3, Round: 4}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		_, err = AppendBinary(buf[:0], m)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("AppendBinary into sized buffer allocated %.1f times per op", allocs)
	}

	// The path tcpnet calls: DeltaEncoder.AppendEncode on a set anchored
	// on a history-sized base with a 1,024-item window that grew by 64
	// items, and on an exact re-send. Nothing but the retransmission
	// table's amortized growth may allocate, and the count must not move
	// with the history: equal at 1k and 16k.
	var allocsAt [2][2]float64 // [history][grew, re-send]
	for h, history := range []int{1 << 10, 16 << 10} {
		old, grown := deltaFixture(history, 1024, 64, true)
		var grew Msg = AckReq{Proposed: grown, TS: 1, Round: 1}
		var resend Msg = AckReq{Proposed: old, TS: 2, Round: 1}
		enc := NewDeltaEncoder()
		buf := make([]byte, 0, 1<<16)
		for i, m := range []Msg{grew, resend} {
			allocsAt[h][i] = testing.AllocsPerRun(200, func() {
				enc.anchors = append(enc.anchors[:0], old)
				if _, err := enc.AppendEncode(buf[:0], m, true); err != nil {
					t.Fatal(err)
				}
			})
		}
		if d, f := enc.Frames(); f != 0 || d == 0 {
			t.Fatalf("history %d: %d delta frames, %d full", history, d, f)
		}
	}
	if a, b := allocsAt[0], allocsAt[1]; a != b || a[0] > 1 || a[1] > 1 {
		t.Fatalf("AppendEncode allocs/op [grew, re-send]: %v at history 1k, %v at 16k; want equal and <= 1", a, b)
	}
}

// TestStrippedEncodingMatchesWithPrimarySet pins the delta frame's inner
// message: encoding with the primary set stripped in place must emit
// exactly the frame of the copy WithPrimarySet(m, ⊥) builds, for every
// kind and through the RBC and shard wrappers.
func TestStrippedEncodingMatchesWithPrimarySet(t *testing.T) {
	msgs := sampleMsgs()
	for _, m := range sampleMsgs() {
		msgs = append(msgs, RBCEcho{Src: 2, Tag: "w", Payload: m}, ShardMsg{Shard: 3, Inner: RBCReady{Src: 1, Tag: "w", Payload: m}})
	}
	for _, m := range msgs {
		got, err := appendBinary(nil, m, true)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		want, err := AppendBinary(nil, WithPrimarySet(m, lattice.Empty()))
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: stripped encoding differs from the encoding of the stripped copy", m)
		}
	}
}

// TestDecodeDoesNotAliasFrame makes tcpnet's reuse of one frame buffer
// per connection safe by test: whatever the decoder returns or caches
// must survive the buffer being overwritten by the next frame.
func TestDecodeDoesNotAliasFrame(t *testing.T) {
	old, grown := deltaFixture(64, 32, 8, false)
	msgs := append(sampleMsgs(),
		AckReq{Proposed: old, TS: 1, Round: 1},                                              // full frame: seeds the base
		AckReq{Proposed: grown, TS: 2, Round: 1},                                            // delta frame against it
		RBCEcho{Src: 1, Tag: "t", Payload: AckB{Accepted: grown, Dest: 2, TS: 3, Round: 1}}, // exact re-send
	)
	enc, dec, pristine := NewDeltaEncoder(), NewDeltaDecoder(), NewDeltaDecoder()
	var buf []byte
	for _, m := range msgs {
		frame, err := enc.AppendEncode(nil, m, true)
		if err != nil {
			t.Fatal(err)
		}
		want, nack, err := pristine.Decode(frame)
		if err != nil || nack != nil {
			t.Fatalf("%s: %v %v", m.Kind(), err, nack)
		}
		buf = append(buf[:0], frame...)
		got, nack, err := dec.Decode(buf)
		if err != nil || nack != nil {
			t.Fatalf("%s: %v %v", m.Kind(), err, nack)
		}
		for i := range buf {
			buf[i] = 0xAA
		}
		if normalize(got) != normalize(want) {
			t.Fatalf("%s: decoded message changed when its frame buffer was overwritten:\n got %s\nwant %s", m.Kind(), normalize(got), normalize(want))
		}
		if s, ok := PrimarySet(got); ok && lattice.FromItems(s.Items()...).Digest() != s.Digest() {
			t.Fatalf("%s: set items no longer match the set digest", m.Kind())
		}
	}
}

// TestSetDecodeNormalizesHostileInput: duplicated and unsorted items
// on the wire come back as a normalized set.
func TestSetDecodeNormalizesHostileInput(t *testing.T) {
	raw := []byte{BinMagic, binDisclosure, 0, 3}
	for _, it := range []lattice.Item{{Author: 1, Body: "z"}, {Author: 0, Body: "a"}, {Author: 1, Body: "z"}} {
		raw = binary.AppendVarint(raw, int64(it.Author))
		raw = appendString(raw, it.Body)
	}
	m, err := DecodeBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	items := m.(Disclosure).Value.Items()
	if len(items) != 2 || items[0].Author != 0 || items[1].Author != 1 {
		t.Fatalf("hostile set not normalized: %v", items)
	}
}

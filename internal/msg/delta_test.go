package msg

import (
	"bytes"
	"fmt"
	"testing"

	"bgla/internal/ident"
	"bgla/internal/lattice"
)

func growingSet(n int) lattice.Set {
	items := make([]lattice.Item, n)
	for i := range items {
		items[i] = lattice.Item{Author: ident.ProcessID(i % 5), Body: fmt.Sprintf("cmd-%04d", i)}
	}
	return lattice.FromItems(items...)
}

func encodeOne(t *testing.T, e *DeltaEncoder, m Msg) []byte {
	t.Helper()
	frame, err := e.Encode(m)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return frame
}

func decodeOne(t *testing.T, d *DeltaDecoder, frame []byte) Msg {
	t.Helper()
	m, nack, err := d.Decode(frame)
	if err != nil || nack != nil {
		t.Fatalf("Decode: m=%v nack=%v err=%v", m, nack, err)
	}
	return m
}

func TestDeltaCodecRoundTripAndShrink(t *testing.T) {
	enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
	base := growingSet(600)
	var fullLen, deltaLen int
	for i := 0; i < 4; i++ {
		s := base.Union(lattice.FromItems(lattice.Item{Author: 9, Body: fmt.Sprintf("extra-%d", i)}))
		base = s
		m := Ack{Accepted: s, TS: uint32(i), Round: 1}
		frame := encodeOne(t, enc, m)
		if i == 0 {
			fullLen = len(frame)
		} else {
			deltaLen = len(frame)
		}
		got := decodeOne(t, dec, frame)
		if KeyOf(got) != KeyOf(m) {
			t.Fatalf("round trip %d: got %v want %v", i, got, m)
		}
	}
	if deltaLen*10 > fullLen {
		t.Fatalf("delta frame (%dB) not ≪ full frame (%dB)", deltaLen, fullLen)
	}
}

func TestDeltaCodecPlainMessagesUntouched(t *testing.T) {
	enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
	m := NewValue{Cmd: lattice.Item{Author: 2, Body: "x"}}
	frame := encodeOne(t, enc, m)
	if plain, err := EncodeBinary(m); err != nil || !bytes.Equal(frame, plain) {
		t.Fatalf("set-free message framed as %x, want its plain frame %x (%v)", frame, plain, err)
	}
	if _, err := enc.AppendEncode(nil, m, false); err == nil {
		t.Fatal("AppendEncode accepted a request for a non-binary encoding")
	}
	if got := decodeOne(t, dec, frame); KeyOf(got) != KeyOf(m) {
		t.Fatalf("plain round trip: %v != %v", got, m)
	}
}

// TestDeltaUnknownBaseFallback simulates a receiver that lost its codec
// state (restart): the delta frame nacks, the sender retransmits the
// same frame with the full set, and the message is delivered intact.
func TestDeltaUnknownBaseFallback(t *testing.T) {
	enc := NewDeltaEncoder()
	s1 := growingSet(50)
	s2 := s1.Union(growingSet(60))
	f1 := encodeOne(t, enc, Decide{Value: s1, Round: 0})
	m2 := Decide{Value: s2, Round: 1}
	f2 := encodeOne(t, enc, m2)

	fresh := NewDeltaDecoder() // never saw f1
	_, nack, err := fresh.Decode(f2)
	if err != nil || nack == nil {
		t.Fatalf("expected nack from fresh decoder, got err=%v nack=%v", err, nack)
	}
	retained, okRetained := enc.HandleNack(*nack)
	if !okRetained {
		t.Fatal("HandleNack did not retain the nacked frame")
	}
	// Re-encoding after a nack is full: the anchors were dropped.
	got := decodeOne(t, fresh, encodeOne(t, enc, retained))
	if KeyOf(got) != KeyOf(m2) {
		t.Fatalf("fallback delivered %v, want %v", got, m2)
	}
	// The original first frame still decodes (it was full).
	if got := decodeOne(t, fresh, f1); KeyOf(got) != KeyOf(Decide{Value: s1, Round: 0}) {
		t.Fatal("full frame no longer decodes")
	}
	// The full retransmission re-established a shared base: the next
	// delta frame resolves on the previously-state-less decoder.
	s3 := s2.Union(growingSet(61))
	f3 := encodeOne(t, enc, Decide{Value: s3, Round: 2})
	if got := decodeOne(t, fresh, f3); KeyOf(got) != KeyOf(Decide{Value: s3, Round: 2}) {
		t.Fatal("post-nack frame did not decode against the re-established base")
	}
}

func TestDeltaNackForgottenFrame(t *testing.T) {
	enc := NewDeltaEncoder()
	if m, retained := enc.HandleNack(DeltaNack{Seq: 12345}); retained || m != nil {
		t.Fatalf("HandleNack on unknown seq: m=%v retained=%v", m, retained)
	}
}

// TestDeltaRBCWrapped checks the codec recurses into Bracha wrappers,
// where GWTS acceptor acks (the dominant history-sized traffic) live.
func TestDeltaRBCWrapped(t *testing.T) {
	enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
	acc := growingSet(200)
	m0 := RBCEcho{Src: 3, Tag: "gwts/ack/1/2/3", Payload: AckB{Accepted: acc, Dest: 1, TS: 2, Round: 3}}
	f0 := encodeOne(t, enc, m0)
	if got := decodeOne(t, dec, f0); KeyOf(got) != KeyOf(m0) {
		t.Fatalf("rbc round trip: %v", got)
	}
	grown := acc.Union(lattice.FromItems(lattice.Item{Author: 7, Body: "late"}))
	m1 := RBCReady{Src: 4, Tag: "gwts/ack/1/3/3", Payload: AckB{Accepted: grown, Dest: 1, TS: 3, Round: 3}}
	f1 := encodeOne(t, enc, m1)
	if len(f1) >= len(f0)/2 {
		t.Fatalf("wrapped delta frame (%dB) not smaller than full (%dB)", len(f1), len(f0))
	}
	if got := decodeOne(t, dec, f1); KeyOf(got) != KeyOf(m1) {
		t.Fatalf("rbc delta round trip: %v", got)
	}
}

// TestDeltaInterleavedStreams exercises the multi-anchor base cache:
// alternating a large accepted-set stream with its smaller decided-set
// subset must keep finding valid bases.
func TestDeltaInterleavedStreams(t *testing.T) {
	enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
	acc := growingSet(300)
	decided := growingSet(250)
	for i := 0; i < 6; i++ {
		acc = acc.Union(lattice.FromItems(lattice.Item{Author: 8, Body: fmt.Sprintf("a%d", i)}))
		decided = decided.Union(lattice.FromItems(lattice.Item{Author: 8, Body: fmt.Sprintf("d%d", i)}))
		for _, m := range []Msg{Ack{Accepted: acc, TS: uint32(i), Round: 0}, Decide{Value: decided, Round: i}} {
			if got := decodeOne(t, dec, encodeOne(t, enc, m)); KeyOf(got) != KeyOf(m) {
				t.Fatalf("interleaved round trip %d: %v", i, got)
			}
		}
	}
}

// FuzzWireRoundTrip fuzzes the full decode surface: arbitrary bytes
// must never panic, and anything that decodes — plain or delta frame —
// must re-encode to a frame that decodes to the same message and
// re-encodes byte-identically (one trip reaches the canonical frame).
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range sampleMsgs() {
		frame, err := EncodeBinary(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Delta-frame seeds: a full frame and a delta frame against it.
	for _, frame := range goldenDeltaFrames() {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, nack, err := NewDeltaDecoder().Decode(data)
		if err != nil || nack != nil {
			return // rejected input: fine, as long as nothing panicked
		}
		// A fresh encoder frames a set-carrying message as a full delta
		// frame and anything else as a plain frame; both must be stable.
		encode := func(m Msg) []byte {
			frame, err := NewDeltaEncoder().Encode(m)
			if err != nil {
				t.Fatalf("re-encode of decoded %T: %v", m, err)
			}
			return frame
		}
		re := encode(m)
		m2, nack, err := NewDeltaDecoder().Decode(re)
		if err != nil || nack != nil {
			t.Fatalf("re-decode: m=%v nack=%v err=%v", m2, nack, err)
		}
		if re2 := encode(m2); !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not byte-identical for %T:\n %x\n %x", m, re, re2)
		}
		plain, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("plain encode of decoded %T: %v", m, err)
		}
		m3, err := DecodeBinary(plain)
		if err != nil {
			t.Fatalf("plain re-decode of %T: %v", m, err)
		}
		if again, err := EncodeBinary(m3); err != nil || !bytes.Equal(plain, again) {
			t.Fatalf("plain frame not byte-identical for %T:\n %x\n %x (%v)", m, plain, again, err)
		}
	})
}

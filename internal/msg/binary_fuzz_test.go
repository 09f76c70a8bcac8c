package msg

import (
	"bytes"
	"testing"

	"bgla/internal/lattice"
)

// FuzzBinaryVsJSONCodec differentially fuzzes the two frame forms the
// wire carries for one message: the plain binary frame and the delta
// frame a DeltaEncoder sends against a base the peer already holds.
// (The name dates from when the second codec was a JSON envelope; the
// corpus under testdata/ keeps its entries, a JSON-era frame among
// them, which both decoders must now refuse without panicking.) The
// invariants:
//
//  1. Hostile bytes never panic either decoder.
//  2. Any message either decoder accepts round-trips byte-stably
//     through the plain binary frame.
//  3. The same message sent as a delta frame, against a base that holds
//     part of its set, decodes back to the byte-identical plain frame.
func FuzzBinaryVsJSONCodec(f *testing.F) {
	for _, m := range sampleMsgs() {
		if dr, err := NewDeltaEncoder().Encode(m); err == nil {
			f.Add(dr)
		}
		if br, err := EncodeBinary(m); err == nil {
			f.Add(br)
		}
	}
	f.Add([]byte{BinMagic, binDisclosure, 2, 1, 1, 'x'})
	f.Add([]byte{BinMagic, binShard, 2, BinMagic, binJunk, 1, 'j'})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, nack, err := NewDeltaDecoder().Decode(data); err == nil && nack == nil {
			crossCheck(t, "delta-first", m)
		}
		if m, err := DecodeBinary(data); err == nil {
			crossCheck(t, "binary-first", m)
		}
	})
}

// crossCheck drives m through both frame forms and fails on any
// divergence.
func crossCheck(t *testing.T, origin string, m Msg) {
	t.Helper()
	br, err := EncodeBinary(m)
	if err != nil {
		t.Fatalf("%s: binary encode of decoded %T: %v", origin, m, err)
	}
	bm, err := DecodeBinary(br)
	if err != nil {
		t.Fatalf("%s: binary decode of own encoding: %v", origin, err)
	}
	if br2, err := EncodeBinary(bm); err != nil || !bytes.Equal(br, br2) {
		t.Fatalf("%s: binary encoding not byte-stable for %T:\n %x\n %x (%v)", origin, m, br, br2, err)
	}

	// Prime one link with a base holding the first half of m's set, so
	// m itself goes over as a delta against it.
	enc, dec := NewDeltaEncoder(), NewDeltaDecoder()
	set, hasSet := PrimarySet(m)
	var base lattice.Set
	if hasSet {
		items := set.Items()
		base = lattice.FromItems(items[:len(items)/2]...)
		if !base.IsEmpty() {
			fr, err := enc.Encode(WithPrimarySet(m, base))
			if err != nil {
				t.Fatalf("%s: delta encode of base: %v", origin, err)
			}
			if _, nack, err := dec.Decode(fr); err != nil || nack != nil {
				t.Fatalf("%s: delta decode of base: nack=%v err=%v", origin, nack, err)
			}
		}
	}
	dr, err := enc.Encode(m)
	if err != nil {
		t.Fatalf("%s: delta encode of decoded %T: %v", origin, m, err)
	}
	if delta, _ := enc.Frames(); hasSet && !base.IsEmpty() && delta != 1 {
		t.Fatalf("%s: %T went over in full despite a usable base", origin, m)
	}
	dm, nack, err := dec.Decode(dr)
	if err != nil || nack != nil {
		t.Fatalf("%s: delta decode of own encoding: nack=%v err=%v", origin, nack, err)
	}
	// The plain frame of the delta-tripped message must be the
	// byte-identical frame.
	dbr, err := EncodeBinary(dm)
	if err != nil {
		t.Fatalf("%s: binary encode of delta-tripped %T: %v", origin, dm, err)
	}
	if !bytes.Equal(dbr, br) {
		t.Fatalf("%s: frame forms diverge for %T:\n binary: %x\n delta:  %x", origin, m, br, dbr)
	}
}

package wal

import (
	"testing"

	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// FuzzWALDecode throws arbitrary bytes at the segment decoder: it must
// never panic, never report more valid bytes than it was given, and
// the valid prefix it reports must itself re-decode to the same
// records (the property recovery's truncate-and-heal relies on).
func FuzzWALDecode(f *testing.F) {
	v := lattice.FromItems(
		lattice.Item{Author: 1, Body: "a"},
		lattice.Item{Author: 2, Body: "b"},
	)
	cert := msg.CkptCert{Round: 3, Len: v.Len(), Dig: v.Digest()}
	var seed []byte
	for _, r := range []record{
		{T: recDecided, Round: 1, SafeR: 1, Len: 2, Value: v},
		{T: recCkpt, Len: 2, Cert: cert},
		{T: recSnap, Round: 3, Len: 2, Value: v, Cert: cert},
	} {
		frame, err := encodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		seed = append(seed, frame...)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                         // torn tail
	f.Add([]byte{})                                   // empty segment
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length prefix
	corrupted := append([]byte(nil), seed...)
	corrupted[len(corrupted)/2] ^= 0x20
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, _ := decodeAll(data)
		if good < 0 || good > len(data) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		again, goodAgain, err := decodeAll(data[:good])
		if err != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err)
		}
		if goodAgain != good || len(again) != len(recs) {
			t.Fatalf("re-decode of valid prefix diverged: %d/%d records, %d/%d bytes",
				len(again), len(recs), goodAgain, good)
		}
		for _, r := range recs {
			// Every decoded record must re-encode (its kind is known and
			// its length non-negative).
			if _, err := encodeRecord(r); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
	})
}

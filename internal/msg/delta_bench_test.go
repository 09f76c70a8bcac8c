package msg

import (
	"fmt"
	"testing"

	"bgla/internal/lattice"
)

// deltaFixture is the steady-state wire shape: a set of history+window
// items that grew by grow items since the peer last saw it. anchored
// puts both sets on a certified base of the first history items (what a
// replica's own sets look like once checkpoints install); otherwise they
// are flat (what comes off the wire before the decoder follows a base).
func deltaFixture(history, window, grow int, anchored bool) (old, grown lattice.Set) {
	items := func(lo, hi int) lattice.Set {
		out := make([]lattice.Item, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, lattice.Item{Author: 7, Body: fmt.Sprintf("put|k%07d|v%d", i*3, i)})
		}
		return lattice.FromItems(out...)
	}
	old = items(0, history+window)
	// The new items interleave with the window instead of trailing it.
	fresh := make([]lattice.Item, 0, grow)
	for i := 0; i < grow; i++ {
		k := history + (i*window)/grow
		fresh = append(fresh, lattice.Item{Author: 7, Body: fmt.Sprintf("put|k%07d|v%d", k*3+1, i)})
	}
	grown = old.Union(lattice.FromItems(fresh...))
	if anchored {
		base := lattice.NewBase(items(0, history))
		var ok1, ok2 bool
		old, ok1 = old.Rebase(base)
		grown, ok2 = grown.Rebase(base)
		if !ok1 || !ok2 {
			panic("delta fixture: base not contained")
		}
	}
	return old, grown
}

var deltaShapes = []struct {
	name     string
	anchored bool
}{{"anchored", true}, {"flat", false}}

var deltaHistories = []struct {
	name string
	n    int
}{{"1k", 1 << 10}, {"4k", 4 << 10}, {"16k", 16 << 10}}

// BenchmarkDeltaEncode is tcpnet's per-frame send cost for a 64-item
// delta: the peer holds old, the machine sends grown. ns/op must not
// follow history.
func BenchmarkDeltaEncode(b *testing.B) {
	for _, sh := range deltaShapes {
		for _, h := range deltaHistories {
			b.Run(sh.name+"/history="+h.name, func(b *testing.B) {
				old, grown := deltaFixture(h.n, 1024, 64, sh.anchored)
				var m Msg = AckReq{Proposed: grown, TS: 1, Round: 1}
				enc := NewDeltaEncoder()
				buf := make([]byte, 0, 1<<16)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc.anchors = append(enc.anchors[:0], old)
					out, err := enc.AppendEncode(buf[:0], m, true)
					if err != nil {
						b.Fatal(err)
					}
					buf = out
				}
				if d, f := enc.Frames(); f != 0 || d != int64(b.N) {
					b.Fatalf("frames: %d delta, %d full", d, f)
				}
			})
		}
	}
}

// BenchmarkDeltaDecode is the matching receive cost: the decoder holds
// old and reconstructs grown from the 64-item delta frame. It follows
// the encoder, as tcpnet's does: anchored fixtures stay on their base
// (a 1,024-item window to merge into), flat ones have nothing to follow
// and are re-anchored on themselves.
func BenchmarkDeltaDecode(b *testing.B) {
	for _, sh := range deltaShapes {
		for _, h := range deltaHistories {
			b.Run(sh.name+"/history="+h.name, func(b *testing.B) {
				old, grown := deltaFixture(h.n, 1024, 64, sh.anchored)
				enc := NewDeltaEncoder()
				enc.anchors = append(enc.anchors, old)
				frame, err := enc.AppendEncode(nil, AckReq{Proposed: grown, TS: 1, Round: 1}, true)
				if err != nil {
					b.Fatal(err)
				}
				dec := NewDeltaDecoder()
				dec.Follow(enc)
				dec.remember(old)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					got, nack, err := dec.Decode(frame)
					if err != nil || nack != nil {
						b.Fatal(err, nack)
					}
					if i == 0 {
						if s, _ := PrimarySet(got); s.Digest() != grown.Digest() {
							b.Fatal("reconstruction diverged")
						}
					}
				}
			})
		}
	}
}

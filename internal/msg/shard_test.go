package msg

import (
	"reflect"
	"testing"

	"bgla/internal/lattice"
)

func TestShardMsgRoundTrip(t *testing.T) {
	set := lattice.FromStrings(3, "a", "b")
	cases := []Msg{
		ShardMsg{Shard: 0, Inner: Ack{Accepted: set, TS: 7, Round: 2}},
		ShardMsg{Shard: 5, Inner: NewValue{Cmd: lattice.Item{Author: 9, Body: "cmd"}}},
		ShardMsg{Shard: 2, Inner: RBCEcho{Src: 1, Tag: "t", Payload: AckB{Accepted: set, Dest: 4, TS: 1, Round: 0}}},
	}
	for _, m := range cases {
		data, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("EncodeBinary(%v): %v", m, err)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("DecodeBinary(%v): %v", m, err)
		}
		if !reflect.DeepEqual(canon(got), canon(m)) {
			t.Fatalf("round trip: got %#v, want %#v", got, m)
		}
	}
}

// canon strips unexported digest memoization from lattice sets so
// DeepEqual compares content (re-encoding rebuilds sets item by item).
func canon(m Msg) Msg {
	if set, ok := PrimarySet(m); ok {
		return WithPrimarySet(m, lattice.FromItems(set.Items()...))
	}
	return m
}

// TestShardMsgDeltaRecursion: a shard-wrapped (even RBC-wrapped)
// history-sized ack must delta-encode through the envelope — the whole
// point of multiplexing shards over one transport is that each shard
// keeps its own delta base chains.
func TestShardMsgDeltaRecursion(t *testing.T) {
	enc := NewDeltaEncoder()
	dec := NewDeltaDecoder()
	base := lattice.FromStrings(1, "a", "b", "c")
	grown := base.Union(lattice.FromStrings(1, "d"))

	send := func(m Msg) Msg {
		t.Helper()
		frame, err := enc.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, nack, err := dec.Decode(frame)
		if err != nil || nack != nil {
			t.Fatalf("decode: %v nack=%v", err, nack)
		}
		return got
	}

	first := send(ShardMsg{Shard: 3, Inner: RBCEcho{Src: 1, Tag: "x", Payload: AckB{Accepted: base, TS: 1}}})
	if got, ok := PrimarySet(first); !ok || !got.Equal(base) {
		t.Fatalf("first set mangled: %v", first)
	}
	second := send(ShardMsg{Shard: 3, Inner: RBCEcho{Src: 1, Tag: "y", Payload: AckB{Accepted: grown, TS: 2}}})
	sm, ok := second.(ShardMsg)
	if !ok || sm.Shard != 3 {
		t.Fatalf("shard tag lost: %#v", second)
	}
	if got, ok := PrimarySet(second); !ok || !got.Equal(grown) {
		t.Fatalf("second set mangled: %v", second)
	}
}

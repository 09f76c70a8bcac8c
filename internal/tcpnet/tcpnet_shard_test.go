package tcpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/shard"
	"bgla/internal/sig"
)

// shardRecorder is a shard instance that records the messages routed to
// it by the demux (driven over real TCP).
type shardRecorder struct {
	proto.Recorder
	self ident.ProcessID

	mu   sync.Mutex
	rcvd []msg.Msg
}

func (r *shardRecorder) ID() ident.ProcessID   { return r.self }
func (r *shardRecorder) Start() []proto.Output { return nil }
func (r *shardRecorder) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	r.mu.Lock()
	r.rcvd = append(r.rcvd, m)
	r.mu.Unlock()
	return nil
}

func (r *shardRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rcvd)
}

func (r *shardRecorder) snapshot() []msg.Msg {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]msg.Msg(nil), r.rcvd...)
}

// TestShardEnvelopeOverTCP deploys two shard.Demux processes on a real
// loopback TCP mesh and drives history-sized, shard-tagged acks from A
// to B: each shard's stream must arrive on exactly its instance, in
// order, with the sets intact — through the delta codec (the shard
// envelope recurses like an RBC wrapper) and with zero nack fallbacks.
func TestShardEnvelopeOverTCP(t *testing.T) {
	const shards = 2
	kc := sig.NewEd25519(2, 3)
	listeners := make([]net.Listener, 2)
	addrs := map[ident.ProcessID]string{}
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}

	mk := func(self ident.ProcessID) (*Node, *shard.Demux, []*shardRecorder) {
		recs := []*shardRecorder{{self: self}, {self: self}}
		d, err := shard.NewDemux(shard.DemuxConfig{
			Self: self,
			Subs: []proto.Machine{recs[0], recs[1]},
			All:  []ident.ProcessID{0, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		peers := map[ident.ProcessID]string{}
		for p, a := range addrs {
			if p != self {
				peers[p] = a
			}
		}
		node, err := NewNode(Config{
			Self: self, Listener: listeners[self], Peers: peers,
			Keychain: kc, Machine: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.SetSend(node.Send, false)
		return node, d, recs
	}
	nodeA, demA, _ := mk(0)
	nodeB, demB, recsB := mk(1)
	nodeA.Start()
	nodeB.Start()
	defer func() {
		nodeA.Stop()
		nodeB.Stop()
		demA.Stop()
		demB.Stop()
	}()

	// Two per-shard growing histories: shard 0 and shard 1 each send a
	// chain of supersets, interleaved on the single shared connection.
	const steps = 20
	histories := make([]lattice.Set, shards)
	for s := range histories {
		histories[s] = lattice.Empty()
	}
	for step := 0; step < steps; step++ {
		for s := 0; s < shards; s++ {
			histories[s] = histories[s].Union(lattice.FromStrings(0, itemName(s, step)))
			nodeA.Send(1, msg.ShardMsg{Shard: s, Inner: msg.Ack{
				Accepted: histories[s], TS: uint32(step), Round: s,
			}})
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for (recsB[0].count() < steps || recsB[1].count() < steps) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	for s := 0; s < shards; s++ {
		got := recsB[s].snapshot()
		if len(got) != steps {
			t.Fatalf("shard %d received %d messages, want %d", s, len(got), steps)
		}
		for step, m := range got {
			ack, ok := m.(msg.Ack)
			if !ok {
				t.Fatalf("shard %d message %d is %T, want Ack", s, step, m)
			}
			if ack.Round != s {
				t.Fatalf("shard %d got a shard-%d ack: cross-shard leak", s, ack.Round)
			}
			if ack.Accepted.Len() != step+1 {
				t.Fatalf("shard %d step %d: set of %d items, want %d (delta chain broken?)",
					s, step, ack.Accepted.Len(), step+1)
			}
		}
	}
	// The interleaved per-shard chains decode without a single
	// unknown-base fallback: each set extends one the peer has seen.
	if n := nodeB.DeltaNacksSent(); n != 0 {
		t.Fatalf("receiver nacked %d delta frames", n)
	}
	if n := nodeA.DeltaResends(); n != 0 {
		t.Fatalf("sender served %d full-set retransmissions", n)
	}
}

func itemName(s, step int) string {
	return "shard" + string(rune('0'+s)) + "-item" + string(rune('a'+step))
}

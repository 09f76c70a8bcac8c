package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// countMachine counts deliveries and lets a benchmark wait for the nth.
type countMachine struct {
	proto.Recorder
	id   ident.ProcessID
	mu   sync.Mutex
	cond sync.Cond
	n    int
}

func newCountMachine(id ident.ProcessID) *countMachine {
	c := &countMachine{id: id}
	c.cond.L = &c.mu
	return c
}

func (c *countMachine) ID() ident.ProcessID   { return c.id }
func (c *countMachine) Start() []proto.Output { return nil }
func (c *countMachine) Handle(ident.ProcessID, msg.Msg) []proto.Output {
	c.mu.Lock()
	c.n++
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

func (c *countMachine) waitFor(n int) {
	c.mu.Lock()
	for c.n < n {
		c.cond.Wait()
	}
	c.mu.Unlock()
}

// burstMsgs is the RBC echo storm in miniature: n echoes whose payload
// set changes every 8 frames (so most frames are exact re-sends, the
// rest small deltas over a growing history), numbered by TS.
func burstMsgs(from, n int) []msg.Msg {
	items := make([]lattice.Item, 0, 256+n/8)
	for i := 0; i < 256; i++ {
		items = append(items, lattice.Item{Author: 5, Body: fmt.Sprintf("hist-%04d", i)})
	}
	set := lattice.FromItems(items...)
	out := make([]msg.Msg, n)
	for i := range out {
		if i%8 == 0 {
			set = set.Union(lattice.Singleton(lattice.Item{Author: 6, Body: fmt.Sprintf("new-%06d", from+i)}))
		}
		out[i] = msg.RBCEcho{Src: 2, Tag: "burst", Payload: msg.AckB{Accepted: set, Dest: 1, TS: uint32(from + i), Round: 1}}
	}
	return out
}

func burstTS(m msg.Msg) uint32 { return m.(msg.RBCEcho).Payload.(msg.AckB).TS }

// enqueue hands a whole burst to a's send loop for peer in one step, so
// the loop finds it queued together.
func enqueue(a *Node, peer ident.ProcessID, msgs []msg.Msg) {
	q := a.sendQ[peer]
	q.mu.Lock()
	q.items = append(q.items, msgs...)
	q.cond.Signal()
	q.mu.Unlock()
}

// TestCoalescedBurstSurvivesReconnect kills the connection under a
// queued burst: the write that carries the first coalesced batch fails,
// and every frame of it must be re-encoded on the new connection — all
// messages arrive, in per-peer order, and the delta chain restarts from
// a self-contained frame instead of a nack per in-flight delta.
func TestCoalescedBurstSurvivesReconnect(t *testing.T) {
	a, b, sink := launchPair(t)
	const warm, burst = 64, 4000

	enqueue(a, 1, burstMsgs(0, warm))
	waitFor(t, "warm-up delivery", func() bool { return len(sink.received()) >= warm })
	writesBefore := a.wireWrites[1].Value()

	// The receiver has drained everything written so far, so nothing is
	// lost or overtaken when the sender's socket dies under the burst.
	a.connMu.Lock()
	for c := range a.conns {
		if c.RemoteAddr().String() == a.cfg.Peers[1] {
			_ = c.Close()
		}
	}
	a.connMu.Unlock()
	enqueue(a, 1, burstMsgs(warm, burst))
	waitFor(t, "burst delivery", func() bool { return len(sink.received()) >= warm+burst })

	var next uint32
	for _, m := range sink.received() {
		switch ts := burstTS(m); {
		case ts == next:
			next++
		case ts > next:
			t.Fatalf("message %d arrived before message %d: lost or reordered", ts, next)
		} // ts < next: a duplicate of a delivered frame, which is allowed
	}
	if next != warm+burst {
		t.Fatalf("delivered up to message %d of %d", next, warm+burst)
	}
	if _, full := a.enc[1].Frames(); full < 2 {
		t.Fatalf("%d self-contained frames: the burst never met a dead connection", full)
	}
	if n := b.DeltaNacksSent(); n > 1 {
		t.Fatalf("%d delta nacks after one reconnect: the base chain was not restarted cleanly", n)
	}
	if writes := a.wireWrites[1].Value() - writesBefore; writes*8 > burst {
		t.Fatalf("%d writes for a queued burst of %d frames: not coalesced", writes, burst)
	}
}

// BenchmarkBroadcastBurst queues 10k RBC frames for each of 3 peers and
// waits for all of them to arrive; frames/write is the coalescing ratio
// (1 before write coalescing, by construction).
func BenchmarkBroadcastBurst(b *testing.B) {
	const peers, frames = 3, 10_000
	kc := sig.NewEd25519(peers+1, 7)
	listeners := make([]net.Listener, peers+1)
	addrs := map[ident.ProcessID]string{}
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}
	sinks := make([]*countMachine, peers+1)
	nodes := make([]*Node, peers+1)
	for i := range nodes {
		self := ident.ProcessID(i)
		peersOf := map[ident.ProcessID]string{}
		if i == 0 {
			for p := 1; p <= peers; p++ {
				peersOf[ident.ProcessID(p)] = addrs[ident.ProcessID(p)]
			}
		}
		sinks[i] = newCountMachine(self)
		node, err := NewNode(Config{Self: self, Listener: listeners[i], Peers: peersOf, Keychain: kc, Machine: sinks[i]})
		if err != nil {
			b.Fatal(err)
		}
		node.Start()
		defer node.Stop()
		nodes[i] = node
	}
	writes := func() (total uint64) {
		for _, c := range nodes[0].wireWrites {
			total += c.Value()
		}
		return total
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := writes()
	for i := 0; i < b.N; i++ {
		msgs := burstMsgs(i*frames, frames)
		for p := 1; p <= peers; p++ {
			enqueue(nodes[0], ident.ProcessID(p), msgs)
		}
		for p := 1; p <= peers; p++ {
			sinks[p].waitFor((i + 1) * frames)
		}
	}
	b.ReportMetric(float64(b.N*peers*frames)/float64(writes()-before), "frames/write")
}

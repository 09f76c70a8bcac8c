package tcpnet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"bgla/internal/core/wts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// launchCluster starts n WTS machines over loopback TCP and returns the
// nodes plus the machines.
func launchCluster(t *testing.T, n, f int) ([]*Node, []*wts.Machine) {
	t.Helper()
	kc := sig.NewEd25519(n, 9)
	listeners := make([]net.Listener, n)
	addrs := make(map[ident.ProcessID]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}
	nodes := make([]*Node, n)
	machines := make([]*wts.Machine, n)
	for i := 0; i < n; i++ {
		self := ident.ProcessID(i)
		m, err := wts.New(wts.Config{Self: self, N: n, F: f, Proposal: lattice.FromStrings(self, "v")})
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
		peers := make(map[ident.ProcessID]string)
		for p, a := range addrs {
			if p != self {
				peers[p] = a
			}
		}
		node, err := NewNode(Config{
			Self: self, Listener: listeners[i], Peers: peers,
			Keychain: kc, Machine: m,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for _, node := range nodes {
		node.Start()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Stop()
		}
	})
	return nodes, machines
}

func TestWTSOverTCP(t *testing.T) {
	n, f := 4, 1
	nodes, machines := launchCluster(t, n, f)
	deadline := time.After(20 * time.Second)
	for i, node := range nodes {
		decided := false
		for !decided {
			select {
			case e := <-node.Events():
				if _, ok := e.(proto.DecideEvent); ok {
					decided = true
				}
			case <-deadline:
				t.Fatalf("node %d did not decide in time", i)
			}
		}
	}
	for _, node := range nodes {
		node.Stop()
	}
	for i := range machines {
		di, ok := machines[i].Decision()
		if !ok {
			t.Fatalf("p%d undecided after events", i)
		}
		for j := i + 1; j < len(machines); j++ {
			dj, _ := machines[j].Decision()
			if !di.Comparable(dj) {
				t.Fatalf("incomparable TCP decisions p%d/p%d", i, j)
			}
		}
	}
}

func TestHelloForgeryRejected(t *testing.T) {
	nodes, _ := launchCluster(t, 4, 1)
	addr := nodes[0].cfg.Listener.Addr().String()

	// Connect with a forged hello claiming to be p1.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, appendHello(nil, 1, 0, []byte("forged"))); err != nil {
		t.Fatal(err)
	}
	// Follow with a frame that must never be attributed to p1.
	frame, _ := msg.EncodeBinary(msg.Junk{Blob: "evil"})
	_ = writeFrame(conn, frame)
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].RejectedHellos() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forged hello not rejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWrongDestinationHelloRejected(t *testing.T) {
	nodes, _ := launchCluster(t, 4, 1)
	kc := sig.NewEd25519(4, 9)
	addr := nodes[0].cfg.Listener.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid signature, but for destination p2: a replayed hello must not
	// authenticate against p0.
	raw := appendHello(nil, 1, 2, kc.SignerFor(1).Sign(helloBytes(1, 2)))
	if err := writeFrame(conn, raw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[0].RejectedHellos() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("misdirected hello not rejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHelloLengthValidation: a hello with no signature or an oversized
// one is refused before any verification.
func TestHelloLengthValidation(t *testing.T) {
	kc := sig.NewEd25519(2, 9)
	good := appendHello(nil, 1, 0, kc.SignerFor(1).Sign(helloBytes(1, 0)))
	if from, to, proof, ok := parseHello(good); !ok || from != 1 || to != 0 || !kc.Verify(1, helloBytes(1, 0), proof) {
		t.Fatalf("valid hello refused: %v %v %v", from, to, ok)
	}
	for _, bad := range [][]byte{nil, good[:helloHeader], append(append([]byte(nil), good...), make([]byte, maxHelloSig)...)} {
		if _, _, _, ok := parseHello(bad); ok {
			t.Fatalf("hello of %d bytes accepted", len(bad))
		}
	}
}

func TestFrameLimits(t *testing.T) {
	// Frames over the cap are refused by readFrame.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		var hdr [4]byte
		hdr[0] = 0xff
		hdr[1] = 0xff
		hdr[2] = 0xff
		hdr[3] = 0xff
		_, _ = c1.Write(hdr[:])
	}()
	if _, err := readFrame(c2, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestNewNodeValidation(t *testing.T) {
	kc := sig.NewEd25519(1, 1)
	m, _ := wts.New(wts.Config{Self: 0, N: 1, F: 0})
	if _, err := NewNode(Config{Keychain: kc, Machine: m}); err == nil {
		t.Fatal("must require listener")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := NewNode(Config{Listener: l, Machine: m}); err == nil {
		t.Fatal("must require keychain")
	}
	if _, err := NewNode(Config{Listener: l, Keychain: kc}); err == nil {
		t.Fatal("must require machine")
	}
}

// sinkMachine records every delivered message (test helper).
type sinkMachine struct {
	proto.Recorder
	id ident.ProcessID

	mu   sync.Mutex
	msgs []msg.Msg
}

func (s *sinkMachine) ID() ident.ProcessID   { return s.id }
func (s *sinkMachine) Start() []proto.Output { return nil }
func (s *sinkMachine) Handle(_ ident.ProcessID, m msg.Msg) []proto.Output {
	s.mu.Lock()
	s.msgs = append(s.msgs, m)
	s.mu.Unlock()
	return nil
}

func (s *sinkMachine) received() []msg.Msg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]msg.Msg(nil), s.msgs...)
}

func launchPair(t *testing.T) (*Node, *Node, *sinkMachine) {
	t.Helper()
	kc := sig.NewEd25519(2, 7)
	var listeners [2]net.Listener
	addrs := map[ident.ProcessID]string{}
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}
	sink := &sinkMachine{id: 1}
	a, err := NewNode(Config{
		Self: 0, Listener: listeners[0], Peers: map[ident.ProcessID]string{1: addrs[1]},
		Keychain: kc, Machine: &sinkMachine{id: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{
		Self: 1, Listener: listeners[1], Peers: map[ident.ProcessID]string{0: addrs[0]},
		Keychain: kc, Machine: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()
	t.Cleanup(func() { a.Stop(); b.Stop() })
	return a, b, sink
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDeltaFallbackOverTCP drives the unknown-base fallback end to end
// over real connections: after the receiver loses its codec state (as a
// restarted process would), the next delta frame is nacked, the sender
// retransmits it with the full set, and the message is still delivered
// with identical content.
func TestDeltaFallbackOverTCP(t *testing.T) {
	a, b, sink := launchPair(t)

	items := make([]lattice.Item, 400)
	for i := range items {
		items[i] = lattice.Item{Author: 2, Body: fmt.Sprintf("cmd-%03d", i)}
	}
	s1 := lattice.FromItems(items...)
	a.Send(1, msg.Ack{Accepted: s1, TS: 1})
	waitFor(t, "first ack", func() bool { return len(sink.received()) >= 1 })

	// Simulate a receiver restart: drop b's per-peer decoder state.
	b.decoderFor(0).Reset()

	s2 := s1.Union(lattice.FromItems(lattice.Item{Author: 3, Body: "late"}))
	a.Send(1, msg.Ack{Accepted: s2, TS: 2})
	waitFor(t, "fallback delivery", func() bool { return len(sink.received()) >= 2 })

	got, ok := sink.received()[1].(msg.Ack)
	if !ok || !got.Accepted.Equal(s2) || got.TS != 2 {
		t.Fatalf("fallback delivered %#v", sink.received()[1])
	}
	if b.DeltaNacksSent() == 0 {
		t.Fatal("receiver never nacked the unknown base")
	}
	waitFor(t, "resend counter", func() bool { return a.DeltaResends() >= 1 })

	// The retransmission re-established the base chain: another delta
	// frame delivers without further nacks.
	nacks := b.DeltaNacksSent()
	s3 := s2.Union(lattice.FromItems(lattice.Item{Author: 3, Body: "later"}))
	a.Send(1, msg.Ack{Accepted: s3, TS: 3})
	waitFor(t, "post-fallback delivery", func() bool { return len(sink.received()) >= 3 })
	if got := sink.received()[2].(msg.Ack); !got.Accepted.Equal(s3) {
		t.Fatalf("post-fallback delivered %v", got.Accepted)
	}
	if b.DeltaNacksSent() != nacks {
		t.Fatal("delta frames kept nacking after the base was re-established")
	}
}

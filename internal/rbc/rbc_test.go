package rbc

import (
	"fmt"
	"testing"

	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// host wraps a Peer into a proto.Machine for simulator tests. If bcast
// is non-nil the host reliably broadcasts it at start under tag "t".
type host struct {
	proto.Recorder
	id       ident.ProcessID
	peer     *Peer
	bcast    msg.Msg
	got      []Delivery
	gotTimes []uint64
}

func newHost(id ident.ProcessID, n, f int, bcast msg.Msg) *host {
	return &host{id: id, peer: NewPeer(id, n, f), bcast: bcast}
}

func (h *host) ID() ident.ProcessID { return h.id }

func (h *host) Start() []proto.Output {
	if h.bcast == nil {
		return nil
	}
	return h.peer.Broadcast("t", h.bcast)
}

func (h *host) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	outs, _ := h.peer.Handle(from, m)
	h.got = append(h.got, h.peer.TakeDeliveries()...)
	return outs
}

// run executes machines under unit delay and returns the result.
func run(t *testing.T, machines []proto.Machine, seed int64) *faultnet.Result {
	t.Helper()
	return faultnet.New(machines, faultnet.Options{Seed: seed, Delay: faultnet.Fixed(1)}).Run(faultnet.Limits{MaxTime: 1000})
}

func TestAllCorrectDeliverSamePayload(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		f := (n - 1) / 3
		payload := msg.Junk{Blob: "v"}
		hosts := make([]*host, n)
		ms := make([]proto.Machine, n)
		for i := 0; i < n; i++ {
			var b msg.Msg
			if i == 0 {
				b = payload
			}
			hosts[i] = newHost(ident.ProcessID(i), n, f, b)
			ms[i] = hosts[i]
		}
		res := run(t, ms, 1)
		for i, h := range hosts {
			if len(h.got) != 1 {
				t.Fatalf("n=%d: p%d delivered %d times", n, i, len(h.got))
			}
			d := h.got[0]
			if d.Src != 0 || d.Tag != "t" || msg.KeyOf(d.Payload) != msg.KeyOf(payload) {
				t.Fatalf("n=%d: p%d wrong delivery %+v", n, i, d)
			}
		}
		// Three message delays end to end.
		if res.EndTime > 3 {
			t.Fatalf("n=%d: broadcast took %d delays, want <= 3", n, res.EndTime)
		}
		// O(n²) messages: send(n) + echo(n²) + ready(n²), upper bound 3n².
		if res.Metrics.SentTotal() > 3*n*n {
			t.Fatalf("n=%d: %d messages, want <= %d", n, res.Metrics.SentTotal(), 3*n*n)
		}
	}
}

// equivocator performs a split-brain RBCSend: payload A to the first
// half of processes, payload B to the rest, plus matching echoes to
// maximize confusion.
type equivocator struct {
	proto.Recorder
	id   ident.ProcessID
	n    int
	a, b msg.Msg
}

func (e *equivocator) ID() ident.ProcessID { return e.id }

func (e *equivocator) Start() []proto.Output {
	var outs []proto.Output
	for i := 0; i < e.n; i++ {
		to := ident.ProcessID(i)
		payload := e.a
		if i >= e.n/2 {
			payload = e.b
		}
		outs = append(outs,
			proto.Send(to, msg.RBCSend{Src: e.id, Tag: "t", Payload: payload}),
			proto.Send(to, msg.RBCEcho{Src: e.id, Tag: "t", Payload: payload}),
			proto.Send(to, msg.RBCReady{Src: e.id, Tag: "t", Payload: payload}),
		)
	}
	return outs
}

func (e *equivocator) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestEquivocatorCannotSplitDeliveries(t *testing.T) {
	n, f := 4, 1
	for seed := int64(0); seed < 10; seed++ {
		hosts := make([]*host, 0, n-1)
		ms := make([]proto.Machine, 0, n)
		for i := 0; i < n-1; i++ {
			h := newHost(ident.ProcessID(i), n, f, nil)
			hosts = append(hosts, h)
			ms = append(ms, h)
		}
		ms = append(ms, &equivocator{
			id: ident.ProcessID(n - 1), n: n,
			a: msg.Junk{Blob: "A"}, b: msg.Junk{Blob: "B"},
		})
		run(t, ms, seed)
		var seen string
		for i, h := range hosts {
			for _, d := range h.got {
				k := msg.KeyOf(d.Payload)
				if seen == "" {
					seen = k
				} else if seen != k {
					t.Fatalf("seed %d: correct p%d delivered conflicting payload", seed, i)
				}
			}
			if len(h.got) > 1 {
				t.Fatalf("seed %d: p%d delivered twice", seed, i)
			}
		}
	}
}

// spoofer claims somebody else's identity in RBCSend.
type spoofer struct {
	proto.Recorder
	id     ident.ProcessID
	victim ident.ProcessID
}

func (s *spoofer) ID() ident.ProcessID { return s.id }
func (s *spoofer) Start() []proto.Output {
	return []proto.Output{proto.Bcast(msg.RBCSend{Src: s.victim, Tag: "t", Payload: msg.Junk{Blob: "forged"}})}
}
func (s *spoofer) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestSpoofedSendRejected(t *testing.T) {
	n, f := 4, 1
	hosts := make([]*host, 0, n-1)
	ms := make([]proto.Machine, 0, n)
	for i := 0; i < n-1; i++ {
		h := newHost(ident.ProcessID(i), n, f, nil)
		hosts = append(hosts, h)
		ms = append(ms, h)
	}
	ms = append(ms, &spoofer{id: 3, victim: 0})
	run(t, ms, 1)
	for i, h := range hosts {
		if len(h.got) != 0 {
			t.Fatalf("p%d delivered a forged broadcast", i)
		}
		if i != 0 && h.peer.Rejected() == 0 {
			t.Fatalf("p%d did not count the spoofed send as rejected", i)
		}
	}
}

func TestTotalityThroughReadyAmplification(t *testing.T) {
	// Byzantine source sends SEND to only two correct processes but
	// echoes/readies to everyone; all three correct processes must
	// still deliver the same payload (totality).
	n, f := 4, 1
	payload := msg.Junk{Blob: "T"}
	hosts := make([]*host, 3)
	ms := make([]proto.Machine, 0, n)
	for i := 0; i < 3; i++ {
		hosts[i] = newHost(ident.ProcessID(i), n, f, nil)
		ms = append(ms, hosts[i])
	}
	byz := &funcByz{id: 3, start: func() []proto.Output {
		outs := []proto.Output{
			proto.Send(0, msg.RBCSend{Src: 3, Tag: "t", Payload: payload}),
			proto.Send(1, msg.RBCSend{Src: 3, Tag: "t", Payload: payload}),
		}
		for i := 0; i < 3; i++ {
			outs = append(outs, proto.Send(ident.ProcessID(i), msg.RBCEcho{Src: 3, Tag: "t", Payload: payload}))
		}
		return outs
	}}
	ms = append(ms, byz)
	run(t, ms, 1)
	for i, h := range hosts {
		if len(h.got) != 1 || msg.KeyOf(h.got[0].Payload) != msg.KeyOf(payload) {
			t.Fatalf("p%d delivery = %+v, want exactly one of payload", i, h.got)
		}
	}
}

type funcByz struct {
	proto.Recorder
	id    ident.ProcessID
	start func() []proto.Output
}

func (b *funcByz) ID() ident.ProcessID                            { return b.id }
func (b *funcByz) Start() []proto.Output                          { return b.start() }
func (b *funcByz) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

func TestDuplicateSendAndEchoSuppressed(t *testing.T) {
	p := NewPeer(0, 4, 1)
	send := msg.RBCSend{Src: 1, Tag: "t", Payload: msg.Junk{Blob: "x"}}
	outs1, ok := p.Handle(1, send)
	if !ok || len(outs1) != 1 {
		t.Fatalf("first send: outs=%v ok=%v", outs1, ok)
	}
	outs2, _ := p.Handle(1, send)
	if len(outs2) != 0 {
		t.Fatal("duplicate send must not re-echo")
	}
	echo := msg.RBCEcho{Src: 1, Tag: "t", Payload: msg.Junk{Blob: "x"}}
	p.Handle(2, echo)
	outsDup, _ := p.Handle(2, echo) // same echoer again
	if len(outsDup) != 0 {
		t.Fatal("duplicate echo must be ignored")
	}
}

func TestDeliveryRequiresQuorumOfReadies(t *testing.T) {
	n, f := 4, 1
	p := NewPeer(0, n, f)
	ready := func(from int) {
		p.Handle(ident.ProcessID(from), msg.RBCReady{Src: 3, Tag: "t", Payload: msg.Junk{Blob: "x"}})
	}
	ready(1)
	ready(2)
	if len(p.TakeDeliveries()) != 0 {
		t.Fatal("2 readies must not deliver (need 2f+1=3)")
	}
	ready(3)
	got := p.TakeDeliveries()
	if len(got) != 1 {
		t.Fatalf("3 readies must deliver, got %d", len(got))
	}
	ready(0)
	if len(p.TakeDeliveries()) != 0 {
		t.Fatal("must deliver at most once")
	}
}

func TestReadyAmplificationThreshold(t *testing.T) {
	p := NewPeer(0, 4, 1)
	out1, _ := p.Handle(1, msg.RBCReady{Src: 3, Tag: "t", Payload: msg.Junk{Blob: "x"}})
	if len(out1) != 0 {
		t.Fatal("one ready (== f) must not amplify")
	}
	out2, _ := p.Handle(2, msg.RBCReady{Src: 3, Tag: "t", Payload: msg.Junk{Blob: "x"}})
	if len(out2) != 1 {
		t.Fatal("f+1 readies must trigger own ready")
	}
	if _, ok := out2[0].Msg.(msg.RBCReady); !ok {
		t.Fatalf("amplification output is %T", out2[0].Msg)
	}
}

func TestMaxTagsPerSrcCapsSpam(t *testing.T) {
	p := NewPeer(0, 4, 1)
	p.SetMaxTagsPerSrc(2)
	for i := 0; i < 5; i++ {
		p.Handle(1, msg.RBCSend{Src: 1, Tag: fmt.Sprintf("spam-%d", i), Payload: msg.Junk{}})
	}
	if got := len(p.insts); got != 2 {
		t.Fatalf("instances = %d, want 2 (capped)", got)
	}
	// Other sources are unaffected.
	p.Handle(2, msg.RBCSend{Src: 2, Tag: "ok", Payload: msg.Junk{}})
	if got := len(p.insts); got != 3 {
		t.Fatalf("instances = %d, want 3", got)
	}
}

func TestNilPayloadRejected(t *testing.T) {
	p := NewPeer(0, 4, 1)
	outs, ok := p.Handle(1, msg.RBCSend{Src: 1, Tag: "t", Payload: nil})
	if !ok || len(outs) != 0 || p.Rejected() != 1 {
		t.Fatal("nil payload must be rejected")
	}
	p.Handle(1, msg.RBCEcho{Src: 1, Tag: "t", Payload: nil})
	p.Handle(1, msg.RBCReady{Src: 1, Tag: "t", Payload: nil})
	if p.Rejected() != 3 {
		t.Fatalf("Rejected = %d, want 3", p.Rejected())
	}
}

func TestNonRBCMessagePassedThrough(t *testing.T) {
	p := NewPeer(0, 4, 1)
	_, ok := p.Handle(1, msg.Junk{})
	if ok {
		t.Fatal("non-RBC message must report ok=false")
	}
}

// TestOnlyFirstEchoAndReadyCount: a Byzantine p3 echoes X and then Y
// (and readies X, then Y) to p0 while the correct p1 and p2 vote Y. The
// later votes of p3 are dropped (Bracha counts a process's first echo
// and first ready per instance), so they cannot lift Y to a quorum that
// only two correct votes plus p3 would reach.
func TestOnlyFirstEchoAndReadyCount(t *testing.T) {
	x, y := msg.Junk{Blob: "X"}, msg.Junk{Blob: "Y"}
	echo := func(p *Peer, from ident.ProcessID, v msg.Msg) []proto.Output {
		outs, _ := p.Handle(from, msg.RBCEcho{Src: 1, Tag: "t", Payload: v})
		return outs
	}
	p := NewPeer(0, 4, 1) // echo quorum 3, ready amplification 2
	echo(p, 3, x)
	echo(p, 3, y)
	echo(p, 1, y)
	if outs := echo(p, 2, y); len(outs) != 0 {
		t.Fatalf("p3's second echo counted toward Y's echo quorum: %v", outs)
	}
	outs := echo(p, 0, y)
	if len(outs) != 1 || msg.KeyOf(outs[0].Msg) != msg.KeyOf(msg.RBCReady{Src: 1, Tag: "t", Payload: y}) {
		t.Fatalf("three correct echoes of Y must send ready(Y), got %v", outs)
	}

	ready := func(p *Peer, from ident.ProcessID, v msg.Msg) []proto.Output {
		outs, _ := p.Handle(from, msg.RBCReady{Src: 1, Tag: "t", Payload: v})
		return outs
	}
	p = NewPeer(0, 4, 1)
	ready(p, 3, x)
	ready(p, 3, y)
	if outs := ready(p, 1, y); len(outs) != 0 {
		t.Fatalf("p3's second ready counted toward Y's amplification: %v", outs)
	}
	if outs := ready(p, 2, y); len(outs) != 1 {
		t.Fatalf("two correct readies of Y must amplify, got %v", outs)
	}
}

func TestNonMemberVotesRejected(t *testing.T) {
	p := NewPeer(0, 4, 1)
	p.Handle(4, msg.RBCSend{Src: 4, Tag: "t", Payload: msg.Junk{}})
	p.Handle(1_000_000, msg.RBCEcho{Src: 1, Tag: "t", Payload: msg.Junk{}})
	p.Handle(1, msg.RBCReady{Src: -1, Tag: "t", Payload: msg.Junk{}})
	if p.Rejected() != 3 || len(p.insts) != 0 {
		t.Fatalf("Rejected = %d, instances = %d; want 3 and 0", p.Rejected(), len(p.insts))
	}
}

// hop is one message in flight between two peers.
type hop struct {
	from, to ident.ProcessID
	m        msg.Msg
}

// runInstance builds n peers and runs one broadcast by p0 to delivery
// at every peer, routing outputs back to back through queue (reused).
func runInstance(n, f int, payload msg.Msg, queue []hop) []*Peer {
	peers := make([]*Peer, n)
	for i := range peers {
		peers[i] = NewPeer(ident.ProcessID(i), n, f)
	}
	emit := func(from ident.ProcessID, outs []proto.Output) {
		for _, o := range outs {
			for to := range peers {
				queue = append(queue, hop{from, ident.ProcessID(to), o.Msg})
			}
		}
	}
	emit(0, peers[0].Broadcast("t", payload))
	for i := 0; i < len(queue); i++ {
		h := queue[i]
		outs, _ := peers[h.to].Handle(h.from, h.m)
		emit(h.to, outs)
	}
	return peers
}

func ackPayload() msg.Msg {
	return msg.AckB{Accepted: lattice.FromStrings(2, "a", "b", "c"), Dest: 1, TS: 1, Round: 1}
}

// TestInstanceAllocs pins the allocations of one complete instance at
// n = 4, peer construction included: the Bracha state holds no maps
// and keys payloads by digest, so what remains is the peers, their
// instance records and the outputs they return.
func TestInstanceAllocs(t *testing.T) {
	payload := ackPayload()
	queue := make([]hop, 0, 256)
	got := testing.AllocsPerRun(20, func() {
		for _, p := range runInstance(4, 1, payload, queue) {
			if len(p.TakeDeliveries()) != 1 {
				t.Fatal("instance not delivered everywhere")
			}
		}
	})
	const pinned = 42
	if got > pinned {
		t.Fatalf("one n=4 instance took %v allocations, pinned at %d", got, pinned)
	}
}

// BenchmarkRBCInstance runs one complete broadcast at n = 4 per
// iteration: four fresh peers, every send, echo and ready, a delivery
// at every peer.
func BenchmarkRBCInstance(b *testing.B) {
	payload := ackPayload()
	queue := make([]hop, 0, 256)
	b.ReportAllocs()
	for range b.N {
		runInstance(4, 1, payload, queue)
	}
}

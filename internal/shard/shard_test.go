package shard

import (
	"sync"
	"testing"
	"time"

	"bgla/internal/chanet"
	"bgla/internal/crdt"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

func TestRouteColocatesKeys(t *testing.T) {
	const shards = 8
	keys := []string{"", "a", "user|42", `esc\aped`, "nul\x00key", "long-key-with-more-bytes"}
	for _, k := range keys {
		want := Of(k, shards)
		if want < 0 || want >= shards {
			t.Fatalf("Of(%q) = %d out of range", k, want)
		}
		// Every command addressing k lands on k's shard, whatever the
		// client seq, stamp or value.
		for seq := uint64(0); seq < 5; seq++ {
			for _, body := range []string{
				crdt.AddCmd(k), crdt.RemCmd(k),
				crdt.PutCmd(k, seq, "v"), crdt.PutCmd(k, 99, string(rune('a'+seq))),
			} {
				if got := Route(body, seq, shards); got != want {
					t.Fatalf("Route(%q, seq=%d) = %d, want %d", body, seq, got, want)
				}
			}
		}
	}
}

func TestRouteSpreadsKeylessCommands(t *testing.T) {
	const shards = 4
	seen := map[int]int{}
	for seq := uint64(0); seq < 64; seq++ {
		seen[Route(crdt.IncCmd(1), seq, shards)]++
	}
	for s := 0; s < shards; s++ {
		if seen[s] == 0 {
			t.Fatalf("shard %d got no keyless commands: %v", s, seen)
		}
	}
	if got := Route(crdt.IncCmd(1), 9, 1); got != 0 {
		t.Fatalf("single shard must absorb everything, got %d", got)
	}
}

// echoMachine is a minimal shard instance: it records what it received
// and answers every NewValue with a broadcast Decide tagged (via Round)
// with its instance number, so tests can see exactly which lattice
// instance spoke.
type echoMachine struct {
	proto.Recorder
	self     ident.ProcessID
	instance int

	mu   sync.Mutex
	rcvd []msg.Msg
}

func (e *echoMachine) ID() ident.ProcessID   { return e.self }
func (e *echoMachine) Start() []proto.Output { return nil }
func (e *echoMachine) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	e.mu.Lock()
	e.rcvd = append(e.rcvd, m)
	e.mu.Unlock()
	if nv, ok := m.(msg.NewValue); ok {
		return []proto.Output{proto.Bcast(msg.Decide{
			Value: lattice.FromItems(nv.Cmd),
			Round: e.instance,
		})}
	}
	return nil
}

func (e *echoMachine) received() []msg.Msg {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]msg.Msg(nil), e.rcvd...)
}

// collector is the client-side machine recording tagged deliveries.
type collector struct {
	proto.Recorder
	self ident.ProcessID

	mu   sync.Mutex
	got  []msg.ShardMsg
	from []ident.ProcessID
}

func (c *collector) ID() ident.ProcessID   { return c.self }
func (c *collector) Start() []proto.Output { return nil }
func (c *collector) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if sm, ok := m.(msg.ShardMsg); ok {
		c.mu.Lock()
		c.got = append(c.got, sm)
		c.from = append(c.from, from)
		c.mu.Unlock()
	}
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

// TestDemuxIsolatesShardsOverSharedTransport runs two demuxed processes
// and a client on one chanet: a command tagged for shard 1 must reach
// only instance 1 on every process, replies must come back tagged, and
// shard 0 must stay silent.
func TestDemuxIsolatesShardsOverSharedTransport(t *testing.T) {
	const clientID ident.ProcessID = 100
	all := []ident.ProcessID{0, 1, clientID}
	mk := func(self ident.ProcessID) (*Demux, []*echoMachine) {
		subs := []*echoMachine{
			{self: self, instance: int(self)*10 + 0},
			{self: self, instance: int(self)*10 + 1},
		}
		d, err := NewDemux(DemuxConfig{
			Self: self,
			Subs: []proto.Machine{subs[0], subs[1]},
			All:  all,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, subs
	}
	d0, subs0 := mk(0)
	d1, subs1 := mk(1)
	cl := &collector{self: clientID}
	net := chanet.New([]proto.Machine{d0, d1, cl}, chanet.Options{})
	d0.SetSend(func(to ident.ProcessID, m msg.Msg) { net.Inject(0, to, m) }, false)
	d1.SetSend(func(to ident.ProcessID, m msg.Msg) { net.Inject(1, to, m) }, false)
	net.Start()

	cmd := lattice.Item{Author: clientID, Body: "x"}
	net.Inject(clientID, 0, msg.ShardMsg{Shard: 1, Inner: msg.NewValue{Cmd: cmd}})
	// Hostile/garbage tags must be dropped without disturbing anything.
	net.Inject(clientID, 0, msg.ShardMsg{Shard: 99, Inner: msg.NewValue{Cmd: cmd}})
	net.Inject(clientID, 0, msg.ShardMsg{Shard: -1, Inner: msg.NewValue{Cmd: cmd}})
	net.Inject(clientID, 0, msg.NewValue{Cmd: cmd}) // untagged

	deadline := time.Now().Add(5 * time.Second)
	for cl.count() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// p0's broadcast reply also fans to p1's shard 1; give it a moment.
	time.Sleep(20 * time.Millisecond)
	d0.Stop()
	d1.Stop()
	net.Stop()

	if got := cl.count(); got != 1 {
		t.Fatalf("collector saw %d tagged messages, want 1", got)
	}
	cl.mu.Lock()
	reply := cl.got[0]
	cl.mu.Unlock()
	if reply.Shard != 1 {
		t.Fatalf("reply tagged shard %d, want 1", reply.Shard)
	}
	dec, ok := reply.Inner.(msg.Decide)
	if !ok || dec.Round != 1 { // p0's shard-1 instance
		t.Fatalf("reply = %#v, want Decide from instance 01", reply.Inner)
	}

	if got := subs0[0].received(); len(got) != 0 {
		t.Fatalf("p0 shard 0 leaked %d messages: %v", len(got), got)
	}
	if got := subs0[1].received(); len(got) != 2 { // NewValue + its own broadcast Decide loopback
		t.Fatalf("p0 shard 1 saw %d messages, want 2: %v", len(got), got)
	}
	if got := subs1[0].received(); len(got) != 0 {
		t.Fatalf("p1 shard 0 leaked %d messages: %v", len(got), got)
	}
	if got := subs1[1].received(); len(got) != 1 { // p0's broadcast Decide
		t.Fatalf("p1 shard 1 saw %d messages, want 1: %v", len(got), got)
	}
	if _, ok := subs1[1].received()[0].(msg.Decide); !ok {
		t.Fatalf("p1 shard 1 got %#v, want the Decide broadcast", subs1[1].received()[0])
	}
}

// silent is a mute Byzantine shard instance: it swallows every
// message and says nothing.
type silent struct {
	proto.Recorder
	self ident.ProcessID
}

func (s *silent) ID() ident.ProcessID                            { return s.self }
func (s *silent) Start() []proto.Output                          { return nil }
func (s *silent) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

// TestDemuxMuteShard: a silent sub swallows its shard's traffic while
// sibling shards keep answering — per-shard Byzantine fault injection.
func TestDemuxMuteShard(t *testing.T) {
	const clientID ident.ProcessID = 100
	live := &echoMachine{self: 0, instance: 1}
	d, err := NewDemux(DemuxConfig{
		Self: 0,
		Subs: []proto.Machine{&silent{self: 0}, live},
		All:  []ident.ProcessID{0, clientID},
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := &collector{self: clientID}
	net := chanet.New([]proto.Machine{d, cl}, chanet.Options{})
	d.SetSend(func(to ident.ProcessID, m msg.Msg) { net.Inject(0, to, m) }, false)
	net.Start()

	cmd := lattice.Item{Author: clientID, Body: "x"}
	net.Inject(clientID, 0, msg.ShardMsg{Shard: 0, Inner: msg.NewValue{Cmd: cmd}}) // muted
	net.Inject(clientID, 0, msg.ShardMsg{Shard: 1, Inner: msg.NewValue{Cmd: cmd}})

	deadline := time.Now().Add(5 * time.Second)
	for cl.count() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	d.Stop()
	net.Stop()

	if got := cl.count(); got != 1 {
		t.Fatalf("collector saw %d replies, want 1 (mute shard must stay silent)", got)
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.got[0].Shard != 1 {
		t.Fatalf("reply from shard %d, want 1", cl.got[0].Shard)
	}
}

func TestNewDemuxValidation(t *testing.T) {
	if _, err := NewDemux(DemuxConfig{Self: 0}); err == nil {
		t.Fatal("no sub-machines accepted")
	}
	bad := &echoMachine{self: 7}
	if _, err := NewDemux(DemuxConfig{Self: 0, Subs: []proto.Machine{bad}}); err == nil {
		t.Fatal("mismatched sub identity accepted")
	}
	if _, err := NewDemux(DemuxConfig{Self: 0, Subs: []proto.Machine{nil}}); err == nil {
		t.Fatal("nil sub-machine accepted")
	}
}

// selfLooper replies to the first NewValue with a self-addressed probe
// and converts the probe into a broadcast Decide — exercising the
// inline self-delivery FIFO.
type selfLooper struct {
	proto.Recorder
	self ident.ProcessID
}

func (s *selfLooper) ID() ident.ProcessID   { return s.self }
func (s *selfLooper) Start() []proto.Output { return nil }
func (s *selfLooper) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	switch v := m.(type) {
	case msg.NewValue:
		return []proto.Output{proto.Send(s.self, msg.Wakeup{Tag: "loop|" + v.Cmd.Body})}
	case msg.Wakeup:
		return []proto.Output{proto.Bcast(msg.Decide{
			Value: lattice.FromStrings(s.self, v.Tag), Round: 7,
		})}
	}
	return nil
}

// TestDemuxInlineMode drives an inline (workerless) demux directly:
// routing, mute shards, broadcast expansion and self-addressed
// loop-backs must all behave like the worker mode, synchronously on
// the caller's goroutine.
func TestDemuxInlineMode(t *testing.T) {
	self, client := ident.ProcessID(0), ident.ProcessID(100)
	var mu sync.Mutex
	var sent []struct {
		to ident.ProcessID
		m  msg.ShardMsg
	}
	d, err := NewDemux(DemuxConfig{
		Self: self,
		Subs: []proto.Machine{&selfLooper{self: self}, &silent{self: self}}, // shard 1 mute
		All:  []ident.ProcessID{self, 1, client},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SetSend(func(to ident.ProcessID, m msg.Msg) {
		sm, ok := m.(msg.ShardMsg)
		if !ok {
			t.Errorf("inline demux sent untagged %T", m)
			return
		}
		mu.Lock()
		sent = append(sent, struct {
			to ident.ProcessID
			m  msg.ShardMsg
		}{to, sm})
		mu.Unlock()
	}, true)
	if outs := d.Start(); len(outs) != 0 {
		t.Fatalf("inline Start returned outputs: %v", outs)
	}

	// Shard 0: NewValue -> self-probe (local FIFO) -> broadcast Decide.
	cmd := lattice.Item{Author: client, Body: "x"}
	d.Handle(client, msg.ShardMsg{Shard: 0, Inner: msg.NewValue{Cmd: cmd}})
	mu.Lock()
	n := len(sent)
	mu.Unlock()
	// Broadcast over All minus self (self loops back internally and the
	// looper ignores Decide): 2 sends, all tagged shard 0.
	if n != 2 {
		t.Fatalf("inline broadcast expanded to %d sends, want 2", n)
	}
	for _, s := range sent {
		if s.m.Shard != 0 {
			t.Fatalf("send to %v tagged shard %d, want 0", s.to, s.m.Shard)
		}
		dec, ok := s.m.Inner.(msg.Decide)
		if !ok || dec.Round != 7 {
			t.Fatalf("send to %v carried %T (round?) — self-loop not processed", s.to, s.m.Inner)
		}
		if !dec.Value.Contains(lattice.Item{Author: self, Body: "loop|x"}) {
			t.Fatalf("self-loop payload lost: %v", dec.Value)
		}
	}

	// Mute shard swallows silently; out-of-range and untagged drop.
	d.Handle(client, msg.ShardMsg{Shard: 1, Inner: msg.NewValue{Cmd: cmd}})
	d.Handle(client, msg.ShardMsg{Shard: 9, Inner: msg.NewValue{Cmd: cmd}})
	d.Handle(client, msg.NewValue{Cmd: cmd})
	mu.Lock()
	after := len(sent)
	mu.Unlock()
	if after != n {
		t.Fatalf("mute/out-of-range/untagged traffic produced %d extra sends", after-n)
	}
	d.Stop() // no workers: must be a no-op, not a hang
}

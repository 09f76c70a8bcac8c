// Package shard partitions the replicated state machine into S
// independent BGLA lattice instances multiplexed over one transport.
//
// A single lattice serializes every command through one growing
// Accepted_set, so per-operation protocol cost (set folds, RBC identity
// checks, digest work) grows with the whole system's history. Key
// partitioning removes that coupling: commands addressing different
// data-item keys commute *and* never need to meet in the same lattice,
// so each shard runs the unmodified §7 construction over 1/S of the
// history. Per-key semantics are preserved exactly — all commands for
// one key colocate (crdt.RoutingKey), so the per-key view still folds a
// single totally-ordered decision chain — while keyless commands
// (counter increments) are hash-partitioned freely because their views
// are order-free sums.
//
// Two pieces live here:
//
//   - the Router (Of / Route): stable FNV-1a key placement;
//   - the Demux: a proto.Machine hosting one process's S shard
//     replicas, unwrapping the msg.ShardMsg envelope and running each
//     shard on its own goroutine, so one transport identity carries S
//     concurrent lattice instances (chanet and tcpnet both drive it
//     unchanged).
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"bgla/internal/crdt"
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Of places a data-item key on one of shards lattices (FNV-1a).
// Placement must be identical on every client for per-key colocation,
// so it depends only on the key bytes and the shard count.
func Of(key string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(shards))
}

// Route places a command body: keyed commands go to their key's shard,
// keyless ones are spread by the caller's sequence number (every client
// already assigns one for command uniqueness, so it is free entropy).
func Route(body string, seq uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	if key, ok := crdt.RoutingKey(body); ok {
		return Of(key, shards)
	}
	return int(seq % uint64(shards))
}

// Sender tags one shard's client traffic before it enters a shared
// transport; send is chanet injection or a tcpnet node's Send. The
// returned value satisfies the batching pipeline's Sender interface.
type Sender struct {
	shard int
	send  func(to ident.ProcessID, m msg.Msg)
}

// NewSender builds a tagging sender for one shard.
func NewSender(shard int, send func(to ident.ProcessID, m msg.Msg)) Sender {
	return Sender{shard: shard, send: send}
}

// Send wraps m in the shard envelope and transmits it.
func (s Sender) Send(to ident.ProcessID, m msg.Msg) {
	s.send(to, msg.ShardMsg{Shard: s.shard, Inner: m})
}

// Gateway is the client-side counterpart of the Demux: a protocol
// machine that unwraps shard-tagged replica notifications and hands
// each to its shard's deliver hook (a batching pipeline's Deliver).
// Untagged or out-of-range traffic is dropped — the same envelope
// validation on both ends of the wire.
type Gateway struct {
	proto.Recorder
	self    ident.ProcessID
	shards  int
	deliver func(shard int, from ident.ProcessID, m msg.Msg)
}

// NewGateway builds a gateway; the deliver hook may be installed later
// (SetDeliver) but must be in place before the transport starts.
func NewGateway(self ident.ProcessID, shards int) *Gateway {
	return &Gateway{self: self, shards: shards}
}

// SetDeliver installs the per-shard delivery hook.
func (g *Gateway) SetDeliver(deliver func(shard int, from ident.ProcessID, m msg.Msg)) {
	g.deliver = deliver
}

// ID implements proto.Machine.
func (g *Gateway) ID() ident.ProcessID { return g.self }

// Start implements proto.Machine.
func (g *Gateway) Start() []proto.Output { return nil }

// Handle implements proto.Machine.
func (g *Gateway) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if sm, ok := m.(msg.ShardMsg); ok && sm.Shard >= 0 && sm.Shard < g.shards && sm.Inner != nil {
		g.deliver(sm.Shard, from, sm.Inner)
	}
	return nil
}

// DemuxConfig configures one process's shard demultiplexer.
type DemuxConfig struct {
	// Self is the process identity shared by all hosted shard replicas.
	Self ident.ProcessID
	// Subs[s] is the protocol machine of shard s.
	Subs []proto.Machine
	// All lists every transport destination (replica processes and
	// client gateways) for broadcast expansion: sub-machine broadcasts
	// become one tagged point-to-point send per destination.
	All []ident.ProcessID
	// Send transmits a tagged message on the shared transport
	// (chanet.Net.Inject or tcpnet.Node.Send). It must be safe for
	// concurrent use; the Demux calls it from S goroutines.
	Send func(to ident.ProcessID, m msg.Msg)
}

// Demux is the per-process shard multiplexer: a proto.Machine whose
// Handle unwraps msg.ShardMsg and forwards the inner message to the
// addressed shard's worker goroutine. Outputs of shard s are wrapped
// back into ShardMsg{Shard: s} and pushed through cfg.Send, so on the
// wire every lattice instance keeps its own message streams while the
// transport sees a single machine per process.
//
// Workers give shards *horizontal* concurrency inside one process:
// chanet and tcpnet drive each machine from a single goroutine, so
// running the S sub-machines inline would serialize every shard of a
// process behind one inbox. The demux inbox only routes (cheap), and
// each shard's protocol work proceeds in parallel with its siblings'.
type Demux struct {
	cfg     DemuxConfig
	boxes   []*workbox
	wg      sync.WaitGroup
	started bool

	evMu   sync.Mutex
	events []proto.Event
}

// workbox is one shard worker's unbounded mailbox.
type workbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []inbound
	closed bool
}

type inbound struct {
	from ident.ProcessID
	m    msg.Msg
}

func newWorkbox() *workbox {
	b := &workbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *workbox) put(e inbound) {
	b.mu.Lock()
	if !b.closed {
		b.queue = append(b.queue, e)
		b.cond.Signal()
	}
	b.mu.Unlock()
}

func (b *workbox) take() (inbound, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.queue) == 0 && !b.closed {
		b.cond.Wait()
	}
	if len(b.queue) == 0 {
		return inbound{}, false
	}
	e := b.queue[0]
	b.queue = b.queue[1:]
	return e, true
}

func (b *workbox) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// NewDemux builds a demux; Send may be set later (SetSend) but must be
// in place before the transport calls Start.
func NewDemux(cfg DemuxConfig) (*Demux, error) {
	if len(cfg.Subs) == 0 {
		return nil, errors.New("shard: no sub-machines")
	}
	for s, sub := range cfg.Subs {
		if sub == nil {
			return nil, fmt.Errorf("shard: sub-machine %d is nil", s)
		}
		if sub.ID() != cfg.Self {
			return nil, fmt.Errorf("shard: sub-machine %d has identity %v, want %v", s, sub.ID(), cfg.Self)
		}
	}
	d := &Demux{cfg: cfg}
	for range cfg.Subs {
		d.boxes = append(d.boxes, newWorkbox())
	}
	return d, nil
}

// SetSend installs the transport send hook (needed when the transport
// object itself is constructed around the machine, e.g. tcpnet.Node).
// Call before Start.
func (d *Demux) SetSend(send func(to ident.ProcessID, m msg.Msg)) {
	d.cfg.Send = send
}

// Shards returns the hosted shard count.
func (d *Demux) Shards() int { return len(d.cfg.Subs) }

// ID implements proto.Machine.
func (d *Demux) ID() ident.ProcessID { return d.cfg.Self }

// Start implements proto.Machine: it launches one worker per shard.
// Sub-machine Start outputs are emitted through Send like any other
// output (never returned), so transports that ignore returned outputs
// after the first delivery behave identically.
func (d *Demux) Start() []proto.Output {
	if d.started {
		return nil
	}
	d.started = true
	for s := range d.cfg.Subs {
		d.wg.Add(1)
		go d.work(s)
	}
	return nil
}

// Handle implements proto.Machine: route-only, never blocks.
func (d *Demux) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	sm, ok := m.(msg.ShardMsg)
	if !ok || sm.Shard < 0 || sm.Shard >= len(d.cfg.Subs) || sm.Inner == nil {
		// Untagged or out-of-range traffic (hostile or misconfigured
		// peer): no shard owns it, drop it on the floor.
		return nil
	}
	d.boxes[sm.Shard].put(inbound{from: from, m: sm.Inner})
	return nil
}

// TakeEvents implements proto.EventSource, aggregating the hosted
// machines' events; workers append concurrently, drivers drain.
func (d *Demux) TakeEvents() []proto.Event {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	out := d.events
	d.events = nil
	return out
}

// Stop shuts the workers down and waits for them. Call after the
// transport has stopped delivering (late Handle calls land in closed
// boxes and are dropped).
func (d *Demux) Stop() {
	for _, b := range d.boxes {
		b.close()
	}
	d.wg.Wait()
}

// work drives one shard's sub-machine; the goroutine owns it
// exclusively, satisfying the proto.Machine single-driver contract.
func (d *Demux) work(s int) {
	defer d.wg.Done()
	sub := d.cfg.Subs[s]
	d.emit(s, sub.Start())
	d.drain(sub)
	for {
		e, ok := d.boxes[s].take()
		if !ok {
			return
		}
		d.emit(s, sub.Handle(e.from, e.m))
		d.drain(sub)
	}
}

// emit wraps a sub-machine's outputs in the shard envelope and sends
// them, expanding broadcasts over the destination list. Self-addressed
// traffic loops back through the local workbox directly: it needs no
// transport hop and chanet's Inject would attribute it correctly but
// deliver it through the demux inbox, adding latency for nothing.
func (d *Demux) emit(s int, outs []proto.Output) {
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		wrapped := msg.ShardMsg{Shard: s, Inner: o.Msg}
		if o.To == proto.Broadcast {
			for _, to := range d.cfg.All {
				if to == d.cfg.Self {
					d.boxes[s].put(inbound{from: d.cfg.Self, m: o.Msg})
					continue
				}
				d.cfg.Send(to, wrapped)
			}
			continue
		}
		if o.To == d.cfg.Self {
			d.boxes[s].put(inbound{from: d.cfg.Self, m: o.Msg})
			continue
		}
		d.cfg.Send(o.To, wrapped)
	}
}

func (d *Demux) drain(sub proto.Machine) {
	evs := proto.DrainEvents(sub)
	if len(evs) == 0 {
		return
	}
	d.evMu.Lock()
	d.events = append(d.events, evs...)
	d.evMu.Unlock()
}

// Package tcpnet deploys protocol machines over TCP: length-prefixed
// frames on a full mesh of loopback (or LAN) connections, with
// Ed25519-authenticated connection handshakes implementing the paper's
// authenticated-link assumption — a connection only delivers messages
// attributed to an identity that proved itself at hello time.
//
// Frame payloads use the binary codec of internal/msg (DESIGN.md §10);
// frames carrying history-sized lattice sets use its delta framing
// (per-peer digest-addressed base caches, DeltaNack-driven full-set
// fallback).
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// maxFrame bounds a single message frame (16 MiB).
const maxFrame = 16 << 20

// maxWriteBytes bounds how much a send loop encodes ahead of one write;
// a steady-state frame is ~100 bytes, so a backlog goes out hundreds of
// frames per syscall.
const maxWriteBytes = 64 << 10

// helloMagic is the domain separator of the handshake signature.
const helloMagic = "bgla/tcp-hello|%d|%d"

// The hello is the first frame on every outgoing connection:
// [from u32][to u32][sig], big-endian, where sig signs
// helloBytes(from, to). A hello whose signature is empty or longer than
// maxHelloSig is rejected before verification.
const (
	helloHeader = 8
	maxHelloSig = 64 // an Ed25519 signature, the largest any Keychain emits
)

// appendHello appends the hello frame payload to dst.
func appendHello(dst []byte, from, to ident.ProcessID, proof []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(from))
	dst = binary.BigEndian.AppendUint32(dst, uint32(to))
	return append(dst, proof...)
}

// parseHello splits a hello frame payload; ok is false when its length
// is out of bounds.
func parseHello(frame []byte) (from, to ident.ProcessID, proof []byte, ok bool) {
	if len(frame) <= helloHeader || len(frame) > helloHeader+maxHelloSig {
		return 0, 0, nil, false
	}
	from = ident.ProcessID(binary.BigEndian.Uint32(frame[0:4]))
	to = ident.ProcessID(binary.BigEndian.Uint32(frame[4:8]))
	return from, to, frame[helloHeader:], true
}

// Config configures one TCP node.
type Config struct {
	Self ident.ProcessID
	// Listener carries inbound traffic; the caller creates it (possibly
	// with port 0) so peer address maps can be built before Start.
	Listener net.Listener
	// Peers maps every *other* process to its dial address.
	Peers map[ident.ProcessID]string
	// Keychain authenticates connection handshakes.
	Keychain sig.Keychain
	// Machine is the protocol state machine to drive.
	Machine proto.Machine
	// DialRetry is the reconnect backoff (default 50ms).
	DialRetry time.Duration
	// EventBuffer sizes the event channel (default 4096).
	EventBuffer int
	// Registry, when non-nil, exposes the node's wire-health counters
	// per peer: delta nacks issued, full-set resends served, and the
	// encoder's delta-vs-full frame split (the fallback path), plus
	// rejected handshakes (DESIGN.md §9). nil gets a private registry —
	// the node-level accessors keep working either way.
	Registry *obs.Registry
}

// Node is one deployed process.
type Node struct {
	cfg     Config
	events  chan proto.Event
	inbox   *queue[inboundMsg]
	stopped atomic.Bool

	sendQ map[ident.ProcessID]*queue[msg.Msg]
	enc   map[ident.ProcessID]*msg.DeltaEncoder
	wg    sync.WaitGroup

	decMu sync.Mutex
	dec   map[ident.ProcessID]*msg.DeltaDecoder

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	rejectedHellos atomic.Int64
	deltaNacksSent atomic.Int64
	deltaResends   atomic.Int64

	// Per-peer registry counters (satellite views of the atomics above,
	// labeled {self, peer}).
	wireNacks   map[ident.ProcessID]*obs.Counter
	wireResends map[ident.ProcessID]*obs.Counter
	wireBytesTx map[ident.ProcessID]*obs.Counter
	wireBytesRx map[ident.ProcessID]*obs.Counter
	wireWrites  map[ident.ProcessID]*obs.Counter
}

// frameBufPool recycles the scratch buffers of the per-peer write path:
// each sendLoop checks one out for the life of its goroutine, so
// steady-state sends do zero frame allocations regardless of how many
// nodes share the process.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

type inboundMsg struct {
	from ident.ProcessID
	m    msg.Msg
}

// queue is an unbounded FIFO handed over wholesale: the consumer swaps
// the filled slice for its previous, finished batch (takeAll), so it
// locks once per wake-up instead of once per element, and a consumed
// element — each may pin a history-sized set — is released when its
// batch is done, not when the backing array is next reallocated.
//
// The per-peer send queues hold typed messages: frames are encoded by
// the send loop immediately before each write, so the delta codec's
// base chain always matches what actually went out on the current
// connection.
type queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	closed bool
}

func newQueue[T any]() *queue[T] {
	q := &queue[T]{}
	q.cond.L = &q.mu
	return q
}

func (q *queue[T]) put(v T) {
	q.mu.Lock()
	if !q.closed {
		q.items = append(q.items, v)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// takeAll blocks until the queue is non-empty and returns everything in
// it, in order; done, the caller's previous batch, is zeroed and becomes
// the queue's next backing array. ok is false once the queue is closed
// and drained.
func (q *queue[T]) takeAll(done []T) (batch []T, ok bool) {
	clear(done)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	batch, q.items = q.items, done[:0]
	return batch, true
}

func (q *queue[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// NewNode builds a node.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Listener == nil {
		return nil, errors.New("tcpnet: listener required")
	}
	if cfg.Keychain == nil {
		return nil, errors.New("tcpnet: keychain required")
	}
	if cfg.Machine == nil {
		return nil, errors.New("tcpnet: machine required")
	}
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 50 * time.Millisecond
	}
	if cfg.EventBuffer == 0 {
		cfg.EventBuffer = 4096
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	n := &Node{
		cfg:         cfg,
		events:      make(chan proto.Event, cfg.EventBuffer),
		inbox:       newQueue[inboundMsg](),
		sendQ:       make(map[ident.ProcessID]*queue[msg.Msg], len(cfg.Peers)),
		enc:         make(map[ident.ProcessID]*msg.DeltaEncoder, len(cfg.Peers)),
		dec:         make(map[ident.ProcessID]*msg.DeltaDecoder),
		conns:       make(map[net.Conn]struct{}),
		wireNacks:   make(map[ident.ProcessID]*obs.Counter, len(cfg.Peers)),
		wireResends: make(map[ident.ProcessID]*obs.Counter, len(cfg.Peers)),
		wireBytesTx: make(map[ident.ProcessID]*obs.Counter, len(cfg.Peers)),
		wireBytesRx: make(map[ident.ProcessID]*obs.Counter, len(cfg.Peers)),
		wireWrites:  make(map[ident.ProcessID]*obs.Counter, len(cfg.Peers)),
	}
	self := cfg.Self.String()
	for p := range cfg.Peers {
		n.sendQ[p] = newQueue[msg.Msg]()
		enc := msg.NewDeltaEncoder()
		n.enc[p] = enc
		peer := p.String()
		n.wireNacks[p] = reg.Counter("bgla_wire_delta_nacks_total", "self", self, "peer", peer)
		n.wireResends[p] = reg.Counter("bgla_wire_delta_resends_total", "self", self, "peer", peer)
		n.wireBytesTx[p] = reg.Counter("bgla_wire_bytes_total", "self", self, "peer", peer, "dir", "tx")
		n.wireBytesRx[p] = reg.Counter("bgla_wire_bytes_total", "self", self, "peer", peer, "dir", "rx")
		n.wireWrites[p] = reg.Counter("bgla_wire_writes_total", "self", self, "peer", peer)
		reg.CounterFunc("bgla_wire_delta_frames_total", func() uint64 {
			d, _ := enc.Frames()
			return uint64(d)
		}, "self", self, "peer", peer)
		reg.CounterFunc("bgla_wire_full_frames_total", func() uint64 {
			_, f := enc.Frames()
			return uint64(f)
		}, "self", self, "peer", peer)
	}
	reg.CounterFunc("bgla_wire_rejected_hellos_total", func() uint64 {
		return uint64(n.rejectedHellos.Load())
	}, "self", self)
	return n, nil
}

// decoderFor returns (lazily creating) the delta decoder of a peer; the
// decoder outlives individual connections, so reconnecting peers keep
// their established base chains.
func (n *Node) decoderFor(peer ident.ProcessID) *msg.DeltaDecoder {
	n.decMu.Lock()
	defer n.decMu.Unlock()
	d := n.dec[peer]
	if d == nil {
		d = msg.NewDeltaDecoder()
		d.Follow(n.enc[peer])
		n.dec[peer] = d
	}
	return d
}

// DeltaNacksSent counts unknown-base nacks this node issued; along with
// DeltaResends it makes the full-set fallback path observable.
func (n *Node) DeltaNacksSent() int64 { return n.deltaNacksSent.Load() }

// DeltaResends counts full-set retransmissions served to nacking peers.
func (n *Node) DeltaResends() int64 { return n.deltaResends.Load() }

// Events returns the machine's event stream.
func (n *Node) Events() <-chan proto.Event { return n.events }

// RejectedHellos counts failed handshake attempts (diagnostics).
func (n *Node) RejectedHellos() int64 { return n.rejectedHellos.Load() }

// Start launches the accept loop, the per-peer senders and the machine
// driver; it returns immediately.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.acceptLoop()
	for p := range n.sendQ {
		n.wg.Add(1)
		go n.sendLoop(p)
	}
	n.wg.Add(1)
	go n.driveMachine()
}

// Stop terminates the node and waits for its goroutines.
func (n *Node) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	_ = n.cfg.Listener.Close()
	for _, q := range n.sendQ {
		q.close()
	}
	n.connMu.Lock()
	for c := range n.conns {
		_ = c.Close() // unblock readers
	}
	n.connMu.Unlock()
	n.inbox.close()
	n.wg.Wait()
}

// track registers a connection for Stop-time teardown; it reports false
// (and closes the conn) when the node is already stopping.
func (n *Node) track(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.stopped.Load() {
		_ = c.Close()
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *Node) enqueueInbound(from ident.ProcessID, m msg.Msg) {
	n.inbox.put(inboundMsg{from: from, m: m})
}

func (n *Node) driveMachine() {
	defer n.wg.Done()
	n.dispatch(n.cfg.Machine.Start())
	n.drainEvents()
	var batch []inboundMsg
	for {
		var ok bool
		if batch, ok = n.inbox.takeAll(batch); !ok {
			return
		}
		for _, e := range batch {
			n.dispatch(n.cfg.Machine.Handle(e.from, e.m))
			n.drainEvents()
		}
	}
}

func (n *Node) drainEvents() {
	for _, e := range proto.DrainEvents(n.cfg.Machine) {
		select {
		case n.events <- e:
		default:
		}
	}
}

func (n *Node) dispatch(outs []proto.Output) {
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		if o.To == proto.Broadcast {
			n.enqueueInbound(n.cfg.Self, o.Msg) // self copy
			for p := range n.sendQ {
				n.sendTo(p, o.Msg)
			}
			continue
		}
		if o.To == n.cfg.Self {
			n.enqueueInbound(n.cfg.Self, o.Msg)
			continue
		}
		n.sendTo(o.To, o.Msg)
	}
}

// Send queues a message to a peer on the node's authenticated links,
// bypassing the machine: client gateways (e.g. the batching pipeline)
// originate traffic directly while inbound notifications still flow
// through the machine. Satisfies batch.Sender.
func (n *Node) Send(to ident.ProcessID, m msg.Msg) {
	if to == n.cfg.Self {
		n.enqueueInbound(n.cfg.Self, m)
		return
	}
	n.sendTo(to, m)
}

func (n *Node) sendTo(to ident.ProcessID, m msg.Msg) {
	if q, ok := n.sendQ[to]; ok {
		q.put(m)
	}
}

// sendLoop maintains the outgoing connection to one peer, reconnecting
// until Stop; queued messages survive reconnects. It drains everything
// queued for the peer, encodes the frames back to back (up to
// maxWriteBytes) and issues one write. The flush rule is "queue empty":
// an isolated message goes out at once and a backlog shares its
// syscalls, with no timer and no added delay. Frames are encoded in
// transmission order, which keeps the delta base chain coherent. Every
// (re)dial resets the peer's delta encoder, so a fresh connection
// starts a self-contained base chain — a restarted receiver never waits
// on bases it missed — and after a failed write every frame of that
// write is re-encoded, in order, against the reset state (those the
// peer already got arrive twice; machines are idempotent).
func (n *Node) sendLoop(peer ident.ProcessID) {
	defer n.wg.Done()
	var conn net.Conn
	drop := func() {
		if conn != nil {
			n.untrack(conn)
			_ = conn.Close()
			conn = nil
		}
	}
	defer drop()
	q := n.sendQ[peer]
	enc := n.enc[peer]
	scratchp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(scratchp)
	var batch []msg.Msg
	sent := 0 // batch[:sent] is written
	for {
		if sent == len(batch) {
			var ok bool
			if batch, ok = q.takeAll(batch); !ok {
				return
			}
			sent = 0
		}
		if conn == nil {
			c, err := n.dialPeer(peer)
			if err != nil {
				if n.stopped.Load() {
					return
				}
				time.Sleep(n.cfg.DialRetry)
				continue
			}
			conn = c
			enc.Reset()
		}
		buf, next := (*scratchp)[:0], sent
		for next < len(batch) && len(buf) < maxWriteBytes {
			buf = appendFrame(buf, enc, batch[next])
			next++
		}
		*scratchp = buf[:0]
		if _, err := conn.Write(buf); err != nil {
			if n.stopped.Load() {
				return
			}
			drop()
			continue // retry the same frames on a fresh connection
		}
		n.wireBytesTx[peer].Add(uint64(len(buf)))
		n.wireWrites[peer].Inc()
		sent = next
	}
}

// appendFrame appends m's [4-byte length | payload] frame to buf; a
// message that cannot be encoded is dropped.
func appendFrame(buf []byte, enc *msg.DeltaEncoder, m msg.Msg) []byte {
	start := len(buf)
	out, err := enc.AppendEncode(append(buf, 0, 0, 0, 0), m, true)
	if err != nil {
		return buf
	}
	binary.BigEndian.PutUint32(out[start:], uint32(len(out)-start-4))
	return out
}

// dialPeer connects and proves identity with the signed hello.
func (n *Node) dialPeer(peer ident.ProcessID) (net.Conn, error) {
	addr := n.cfg.Peers[peer]
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	if !n.track(conn) {
		return nil, errors.New("tcpnet: node stopped")
	}
	proof := n.cfg.Keychain.SignerFor(n.cfg.Self).Sign(helloBytes(n.cfg.Self, peer))
	if err := writeFrame(conn, appendHello(nil, n.cfg.Self, peer, proof)); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

func helloBytes(from, to ident.ProcessID) []byte {
	return []byte(fmt.Sprintf(helloMagic, from, to))
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.cfg.Listener.Accept()
		if err != nil {
			return // listener closed on Stop
		}
		if !n.track(conn) {
			return
		}
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop authenticates the hello and then feeds frames to the machine
// attributed to the authenticated peer. It reads through a buffer (a
// coalesced write arrives as one read, not two per frame) into one
// grow-only frame buffer: the decoder copies everything it keeps.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	defer conn.Close()
	r := bufio.NewReaderSize(conn, maxWriteBytes)
	frame, err := readFrame(r, nil)
	if err != nil {
		return
	}
	from, to, proof, ok := parseHello(frame)
	if !ok || to != n.cfg.Self || !n.cfg.Keychain.Verify(from, helloBytes(from, to), proof) {
		n.rejectedHellos.Add(1)
		return
	}
	bytesRx := n.wireBytesRx[from]
	dec := n.decoderFor(from)
	for {
		if frame, err = readFrame(r, frame); err != nil {
			return
		}
		if bytesRx != nil {
			bytesRx.Add(uint64(len(frame) + 4))
		}
		m, nack, err := dec.Decode(frame)
		if nack != nil {
			// Unknown delta base: ask the sender for the full set.
			n.deltaNacksSent.Add(1)
			if c := n.wireNacks[from]; c != nil {
				c.Inc()
			}
			n.sendTo(from, *nack)
			continue
		}
		if err != nil {
			continue // malformed frame: drop, keep connection
		}
		if nk, ok := m.(msg.DeltaNack); ok {
			// Transport-level: requeue the retained message instead of
			// delivering the nack to the machine; the send loop
			// re-encodes it against the post-nack (anchor-free) codec
			// state, re-establishing a shared base chain.
			if enc, okE := n.enc[from]; okE {
				if retained, served := enc.HandleNack(nk); served {
					n.sendTo(from, retained)
					n.deltaResends.Add(1)
					if c := n.wireResends[from]; c != nil {
						c.Inc()
					}
				}
			}
			continue
		}
		n.enqueueInbound(from, m)
	}
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf, replacing it when the frame does
// not fit, and returns the payload: it aliases the (possibly new)
// buffer, which the caller passes back in to reuse.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 4096)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	size := int(binary.BigEndian.Uint32(buf[:4]))
	if size > maxFrame {
		return buf, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", size)
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	_, err := io.ReadFull(r, buf[:size])
	return buf[:size], err
}

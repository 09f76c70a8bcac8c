// Package chanet runs protocol machines under real concurrency: one
// goroutine per machine, unbounded mailboxes between them, and optional
// random delivery jitter. It provides the live counterpart of the
// deterministic virtual-time engine (internal/faultnet) — the same proto.Machine implementations run
// unchanged — and is exercised under the race detector to validate that
// machines are driven safely from concurrent transports.
//
// Reliable links: mailboxes are unbounded (growable queues), so sends
// never block and never drop — matching the paper's reliable channel
// assumption at the cost of memory, which production deployments would
// bound with flow control (the TCP transport relies on TCP backpressure
// instead).
package chanet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// envelope is one in-flight message.
type envelope struct {
	from ident.ProcessID
	m    msg.Msg
}

// mailbox is an unbounded FIFO with blocking receive. queue[head:] is
// pending. The backing array is reused from the start once the queue
// drains, and a full array whose taken prefix is at least half of it
// is compacted in place instead of grown, so a queue that never drains
// keeps an array within four times its backlog.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	head   int
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(e envelope) {
	mb.mu.Lock()
	if !mb.closed {
		if len(mb.queue) == cap(mb.queue) && mb.head > 0 && mb.head >= len(mb.queue)/2 {
			n := copy(mb.queue, mb.queue[mb.head:])
			clear(mb.queue[n:])
			mb.queue, mb.head = mb.queue[:n], 0
		}
		mb.queue = append(mb.queue, e)
		mb.cond.Signal()
	}
	mb.mu.Unlock()
}

// take blocks until a message or close; ok=false means closed and empty.
func (mb *mailbox) take() (envelope, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.head == len(mb.queue) && !mb.closed {
		mb.cond.Wait()
	}
	if mb.head == len(mb.queue) {
		return envelope{}, false
	}
	e := mb.queue[mb.head]
	mb.queue[mb.head] = envelope{} // release the message to the GC
	mb.head++
	if mb.head == len(mb.queue) {
		mb.queue, mb.head = mb.queue[:0], 0
	}
	return e, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.cond.Broadcast()
	mb.mu.Unlock()
}

// Options tunes the network.
type Options struct {
	// MaxJitter adds a uniform random delay in (0, MaxJitter] to every
	// cross-process delivery (0 = immediate).
	MaxJitter time.Duration
	// Seed seeds the jitter RNG.
	Seed int64
	// EventBuffer sizes the global event channel (default 4096).
	EventBuffer int
}

// Net drives a set of machines concurrently.
type Net struct {
	opts      Options
	machines  map[ident.ProcessID]proto.Machine
	ids       []ident.ProcessID
	mailboxes map[ident.ProcessID]*mailbox
	events    chan proto.Event
	wg        sync.WaitGroup
	timerWG   sync.WaitGroup
	stopped   atomic.Bool
	sent      atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a network over the machines.
func New(machines []proto.Machine, opts Options) *Net {
	if opts.EventBuffer == 0 {
		opts.EventBuffer = 4096
	}
	n := &Net{
		opts:      opts,
		machines:  make(map[ident.ProcessID]proto.Machine, len(machines)),
		mailboxes: make(map[ident.ProcessID]*mailbox, len(machines)),
		events:    make(chan proto.Event, opts.EventBuffer),
		rng:       rand.New(rand.NewSource(opts.Seed)),
	}
	for _, m := range machines {
		n.machines[m.ID()] = m
		n.mailboxes[m.ID()] = newMailbox()
		n.ids = append(n.ids, m.ID())
	}
	return n
}

// Events returns the stream of protocol events from all machines.
// Events are dropped if the buffer overflows and nobody drains it.
func (n *Net) Events() <-chan proto.Event { return n.events }

// Sent reports the number of cross-process messages dispatched.
func (n *Net) Sent() int64 { return n.sent.Load() }

// Start launches one goroutine per machine and dispatches the Start
// outputs.
func (n *Net) Start() {
	for _, id := range n.ids {
		m := n.machines[id]
		mb := n.mailboxes[id]
		n.wg.Add(1)
		go func(id ident.ProcessID, m proto.Machine, mb *mailbox) {
			defer n.wg.Done()
			n.dispatch(id, m.Start())
			n.emitEvents(m)
			for {
				e, ok := mb.take()
				if !ok {
					return
				}
				outs := m.Handle(e.from, e.m)
				n.dispatch(id, outs)
				n.emitEvents(m)
			}
		}(id, m, mb)
	}
}

func (n *Net) emitEvents(m proto.Machine) {
	for _, e := range proto.DrainEvents(m) {
		select {
		case n.events <- e:
		default: // overflow: drop rather than deadlock
		}
	}
}

func (n *Net) jitter() time.Duration {
	if n.opts.MaxJitter <= 0 {
		return 0
	}
	n.rngMu.Lock()
	d := time.Duration(n.rng.Int63n(int64(n.opts.MaxJitter))) + 1
	n.rngMu.Unlock()
	return d
}

func (n *Net) deliver(from, to ident.ProcessID, m msg.Msg) {
	mb, ok := n.mailboxes[to]
	if !ok {
		return
	}
	if from != to {
		n.sent.Add(1)
	}
	if d := n.jitter(); d > 0 && from != to {
		n.timerWG.Add(1)
		time.AfterFunc(d, func() {
			defer n.timerWG.Done()
			mb.put(envelope{from: from, m: m})
		})
		return
	}
	mb.put(envelope{from: from, m: m})
}

func (n *Net) dispatch(from ident.ProcessID, outs []proto.Output) {
	if n.stopped.Load() {
		return
	}
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		if o.To == proto.Broadcast {
			for _, to := range n.ids {
				n.deliver(from, to, o.Msg)
			}
			continue
		}
		n.deliver(from, o.To, o.Msg)
	}
}

// Inject delivers a message from an external identity (e.g. a test
// acting as a client or a timer).
func (n *Net) Inject(from, to ident.ProcessID, m msg.Msg) {
	n.deliver(from, to, m)
}

// Stop shuts the network down and waits for the machine goroutines.
// Machine goroutines are quiesced before the jitter timers are awaited:
// an in-flight dispatch may still register timers (timerWG.Add), so
// waiting on timerWG is only sound once wg.Wait has returned. Jittered
// deliveries that fire afterwards land in closed mailboxes (no-ops).
func (n *Net) Stop() {
	n.stopped.Store(true)
	for _, mb := range n.mailboxes {
		mb.close()
	}
	n.wg.Wait()
	n.timerWG.Wait()
}

// AwaitEvents drains the event stream until pred has been satisfied
// `count` times or the timeout expires; it returns the number of
// matches observed.
func (n *Net) AwaitEvents(count int, timeout time.Duration, pred func(proto.Event) bool) int {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	got := 0
	for got < count {
		select {
		case e := <-n.events:
			if pred(e) {
				got++
			}
		case <-deadline.C:
			return got
		}
	}
	return got
}

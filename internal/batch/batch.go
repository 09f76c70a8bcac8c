// Package batch is the client-side batching and pipelining gateway of
// the RSM (§7): a goroutine adapter over rsm.Gateway, the one client
// machine of Algorithms 5 and 6. The machine coalesces concurrent
// operations into single lattice proposals (Generalized Lattice
// Agreement decides joins of concurrent proposals, so batching is
// semantically free), keeps several in flight, and ignores
// notifications from processes outside Replicas.
//
// The adapter owns what the machine must not: the goroutines, the
// bounded request queue (QueueDepth backpressure), the bounded reply
// buffer, context cancellation, the clock, the expiry tick and the
// registry instruments. A batch launches as soon as a flight slot is
// free and absorbs queued operations (up to MaxBatch) while every slot
// is busy, with no linger timer.
package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
)

// Sentinel errors returned to callers.
var (
	// ErrClosed reports that the pipeline was shut down.
	ErrClosed = errors.New("batch: pipeline closed")
	// ErrTimeout reports that an operation's flight exceeded OpTimeout.
	ErrTimeout = errors.New("batch: operation timed out")
)

// Sender delivers a client-originated protocol message to a replica.
// chanet injection and TCP client connections both satisfy it.
type Sender interface {
	Send(to ident.ProcessID, m msg.Msg)
}

// Config tunes a Pipeline.
type Config struct {
	// Client is the pipeline's identity on the network (the author of
	// its nop read markers).
	Client ident.ProcessID
	// Replicas lists every replica identity (confirmation fan-out).
	Replicas []ident.ProcessID
	// SubmitTo overrides which replicas receive new_value triggers
	// (default: the first f+1 of Replicas, per Alg 5 line 3). Mute
	// fault injection narrows it to correct replicas.
	SubmitTo []ident.ProcessID
	// F is the Byzantine bound; quorums are f+1 (core.ReadQuorum).
	F int
	// MaxBatch bounds operations per proposal (default 64; 1 disables
	// coalescing entirely — the seed one-at-a-time behaviour when
	// MaxInFlight is also 1).
	MaxBatch int
	// MaxInFlight bounds concurrently outstanding proposals (default 8).
	MaxInFlight int
	// QueueDepth bounds queued-but-unlaunched operations; enqueueing
	// beyond it blocks the caller — backpressure (default 4096).
	QueueDepth int
	// OpTimeout bounds each operation end-to-end, from enqueue to
	// completion — queueing delay under backpressure counts against it
	// (default 30s).
	OpTimeout time.Duration
	// StartSeq seeds the flight sequence counter (first flight gets
	// StartSeq+1). A client restarting over durable replica state must
	// seed this past its previous incarnation's sequences (see
	// rsm.MaxSeq): flight sequences author the read nop markers, and a
	// reused marker is already in the decided set — absorbed without a
	// fresh decision, so its confirmation would never arrive.
	StartSeq uint64
	// Registry, when non-nil, backs the pipeline's counters: per-shard
	// ops/flights/timeouts/decided-ops counters, queue-depth and
	// in-flight gauges, and the decision-latency histogram (DESIGN.md
	// §9). nil gets a private registry, so Stats always works.
	Registry *obs.Registry
	// Shard labels the instruments with the owning shard index.
	Shard int
	// Clock supplies decision-latency timestamps (nil = obs.WallClock).
	Clock obs.Clock
	// Trace, when non-nil, receives client-side EvPropose/EvDecide
	// events. Unlike the replica-side consensus trace, flight launches
	// race residual network deliveries, so this trace is NOT byte-stable
	// under faultnet — keep it out of determinism assertions.
	Trace *obs.Tracer
}

func (c *Config) applyDefaults() error {
	if len(c.Replicas) == 0 {
		return errors.New("batch: no replicas configured")
	}
	if c.F < 0 {
		return fmt.Errorf("batch: negative fault bound %d", c.F)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("batch: MaxBatch %d < 1", c.MaxBatch)
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 8
	}
	if c.MaxInFlight < 1 {
		return fmt.Errorf("batch: MaxInFlight %d < 1", c.MaxInFlight)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4096
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 30 * time.Second
	}
	if c.OpTimeout < 0 {
		return fmt.Errorf("batch: negative OpTimeout %v", c.OpTimeout)
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock
	}
	return nil
}

// Stats is a snapshot of pipeline activity counters.
type Stats struct {
	// Ops counts operations accepted into flights (updates + reads).
	Ops, Updates, Reads uint64
	// Flights counts launched proposals; MaxBatchOps is the largest
	// batch launched.
	Flights     uint64
	MaxBatchOps int
	// Timeouts counts flights that expired.
	Timeouts uint64
}

// AvgBatch reports the mean operations per flight.
func (s Stats) AvgBatch() float64 {
	if s.Flights == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Flights)
}

// Pipeline is the batching gateway. All methods are safe for concurrent
// use.
type Pipeline struct {
	cfg  Config
	send Sender

	reqs    chan rsm.Request
	replies chan reply
	wake    chan struct{} // buffered(1): collect has work due
	closed  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	mu     sync.Mutex
	gw     *rsm.Gateway
	outbox []proto.Output // confirmation requests, sent by collect
	timer  *time.Timer    // wakes collect at the earliest flight deadline
	armed  uint64         // the deadline timer is set for

	// Registry-backed instruments (the one counting path; Stats() is a
	// view over these).
	cUpdates, cReads    *obs.Counter
	cFlights, cTimeouts *obs.Counter
	cDecided            *obs.Counter
	gMaxBatch           *obs.Gauge
	hLatency            *obs.Histogram
}

// reply is a replica notification forwarded by the transport owner.
type reply struct {
	from ident.ProcessID
	m    msg.Msg
}

// replyBuffer sizes the reply channel: room for a Decide from every
// replica for each submission of every in-flight batch at the default
// shape (f+1 = 2 submissions of up to 64 commands), i.e. 128 per replica
// per flight, capped at 65,536. At n = 4 and MaxInFlight 8 that is 4,096
// replies (96 KiB); the root stress tests, the faultnet scenarios and
// the benchmark workloads peaked at 25 queued replies there, and a fake
// cluster answering every submission at once (MaxInFlight 1, -race) at
// 127 of its 512. Past it Deliver blocks, which is the memory bound
// against a replica that floods the client.
func replyBuffer(cfg Config) int {
	return min(128*len(cfg.Replicas)*cfg.MaxInFlight, 1<<16)
}

// New builds and starts a pipeline over the sender.
func New(cfg Config, send Sender) (*Pipeline, error) {
	if send == nil {
		return nil, errors.New("batch: nil sender")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:     cfg,
		send:    send,
		reqs:    make(chan rsm.Request, cfg.QueueDepth),
		replies: make(chan reply, replyBuffer(cfg)),
		wake:    make(chan struct{}, 1),
		closed:  make(chan struct{}),
		gw: rsm.NewGateway(rsm.GatewayConfig{
			Self: cfg.Client, F: cfg.F, Replicas: cfg.Replicas, SubmitTo: cfg.SubmitTo,
			MaxBatch: cfg.MaxBatch, MaxInFlight: cfg.MaxInFlight,
			StartSeq: cfg.StartSeq, OpTimeout: uint64(cfg.OpTimeout),
		}),
	}
	reg, sh := cfg.Registry, strconv.Itoa(cfg.Shard)
	p.cUpdates = reg.Counter("bgla_ops_total", "shard", sh, "type", "update")
	p.cReads = reg.Counter("bgla_ops_total", "shard", sh, "type", "read")
	p.cFlights = reg.Counter("bgla_flights_total", "shard", sh)
	p.cTimeouts = reg.Counter("bgla_timeouts_total", "shard", sh)
	p.cDecided = reg.Counter("bgla_decided_ops_total", "shard", sh)
	p.gMaxBatch = reg.Gauge("bgla_max_batch_ops", "shard", sh)
	p.hLatency = reg.Histogram("bgla_decision_latency_ns", "shard", sh)
	reg.GaugeFunc("bgla_queue_depth", func() int64 { return int64(len(p.reqs)) }, "shard", sh)
	reg.GaugeFunc("bgla_inflight", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.gw.InFlight())
	}, "shard", sh)
	p.timer = time.AfterFunc(math.MaxInt64, p.poke)
	p.wg.Add(2)
	go p.collect()
	go p.dispatch()
	return p, nil
}

// Close shuts the pipeline down; blocked callers return ErrClosed.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.timer.Stop()
	})
	p.wg.Wait()
}

// Stats snapshots the activity counters (a view over the registry
// instruments; safe from any goroutine).
func (p *Pipeline) Stats() Stats {
	u, r := p.cUpdates.Value(), p.cReads.Value()
	return Stats{
		Ops: u + r, Updates: u, Reads: r,
		Flights:     p.cFlights.Value(),
		MaxBatchOps: int(p.gMaxBatch.Value()),
		Timeouts:    p.cTimeouts.Value(),
	}
}

// LatencySnapshot returns the decision-latency histogram (launch to
// decide quorum, in Clock units — nanoseconds under the wall clock).
func (p *Pipeline) LatencySnapshot() obs.HistSnapshot {
	return p.hLatency.Snapshot()
}

// trace emits one client-side trace event; no-op without a Tracer.
func (p *Pipeline) trace(kind obs.EventKind, t uint64, seq uint64, detail string) {
	if p.cfg.Trace == nil {
		return
	}
	p.cfg.Trace.Emit(obs.Event{
		T:      t,
		Kind:   kind,
		Shard:  p.cfg.Shard,
		Proc:   p.cfg.Client.String(),
		Round:  int(seq),
		Detail: detail,
	})
}

// Update enqueues a command and blocks until it is durably decided
// (Alg 5), the context is cancelled, or the pipeline closes.
func (p *Pipeline) Update(ctx context.Context, cmd lattice.Item) error {
	_, err := p.do(ctx, rsm.Request{Cmd: cmd})
	return err
}

// Read enqueues a read and blocks until a confirmed state is available
// (Alg 6). The returned set is the raw decision value: read markers are
// still present (rsm.StripNops removes them).
func (p *Pipeline) Read(ctx context.Context) (lattice.Set, error) {
	return p.do(ctx, rsm.Request{Read: true})
}

func (p *Pipeline) do(ctx context.Context, op rsm.Request) (lattice.Set, error) {
	// The Ref is where the report that completes the op arrives;
	// buffered(1), so completing never blocks.
	done := make(chan rsm.Report, 1)
	op.At, op.Ref = p.cfg.Clock.Now(), done
	select {
	case p.reqs <- op:
	case <-ctx.Done():
		return lattice.Empty(), ctx.Err()
	case <-p.closed:
		return lattice.Empty(), ErrClosed
	}
	select {
	case r := <-done:
		if r.Kind == rsm.Expired {
			return lattice.Empty(), ErrTimeout
		}
		return r.Value, nil
	case <-ctx.Done():
		return lattice.Empty(), ctx.Err()
	case <-p.closed:
		return lattice.Empty(), ErrClosed
	}
}

// Deliver feeds a replica notification (Decide / CnfRep) into the
// pipeline. The transport owner calls it from its receive path; it
// never drops a live reply — unmatched notifications are discarded by
// content, not by arrival timing — and blocks while the reply buffer
// (replyBuffer) is full.
func (p *Pipeline) Deliver(from ident.ProcessID, m msg.Msg) {
	switch m.(type) {
	case msg.Decide, msg.CnfRep:
	default:
		return
	}
	select {
	case p.replies <- reply{from: from, m: m}:
	case <-p.closed:
	}
}

// collect is the only goroutine that sends. It feeds queued requests
// to the machine (holding back at most one batch, so the queue keeps
// its backpressure), expires and launches flights, keeps the timer set
// for the earliest flight deadline, and sends the launches and the
// confirmation requests dispatch left in the outbox.
// Sending never happens on dispatch, which drains the replies a
// synchronous transport may deliver from inside Send.
func (p *Pipeline) collect() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.gw.Queued() < p.cfg.MaxBatch && len(p.reqs) > 0 {
			p.gw.Submit(<-p.reqs)
		}
		now := p.cfg.Clock.Now()
		outs := append(p.outbox, p.gw.Tick(now)...)
		p.outbox = nil
		done := p.settle()
		if d, ok := p.gw.NextDeadline(); ok && d != p.armed {
			p.armed = d
			p.timer.Reset(time.Duration(d - min(d, now)))
		}
		in := p.reqs
		if p.gw.Queued() >= p.cfg.MaxBatch {
			in = nil
		}
		p.mu.Unlock()
		complete(done)
		for _, o := range outs {
			p.send.Send(o.To, o.Msg)
		}
		select {
		case r := <-in:
			p.mu.Lock()
			p.gw.Submit(r)
			p.mu.Unlock()
		case <-p.wake:
		case <-p.closed:
			return
		}
	}
}

// dispatch feeds replica notifications to the machine and wakes
// collect when that leaves sends or launches due. It releases the
// callers a reply completes only after that wake-up, so a caller that
// resubmits at once is scheduled ahead of collect and joins the flight
// collect launches into the freed slot, instead of queueing behind it
// for the next one.
func (p *Pipeline) dispatch() {
	defer p.wg.Done()
	for {
		select {
		case r := <-p.replies:
			p.mu.Lock()
			p.outbox = append(p.outbox, p.gw.Handle(r.from, r.m)...)
			done := p.settle()
			due := len(p.outbox) > 0 || p.gw.Queued() > 0 && p.gw.InFlight() < p.cfg.MaxInFlight
			p.mu.Unlock()
			if due {
				p.poke()
			}
			complete(done)
		case <-p.closed:
			return
		}
	}
}

// poke wakes collect.
func (p *Pipeline) poke() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// settle applies the machine's reports to the instruments and returns
// those that complete operations, for complete once p.mu is released;
// the caller holds p.mu.
func (p *Pipeline) settle() []rsm.Report {
	reps := p.gw.TakeReports()
	done := reps[:0]
	for _, r := range reps {
		switch r.Kind {
		case rsm.Launched:
			p.cFlights.Inc()
			p.cUpdates.Add(uint64(r.Ops - r.Reads))
			p.cReads.Add(uint64(r.Reads))
			p.gMaxBatch.SetMax(int64(r.Ops))
			p.trace(obs.EvPropose, r.Launched, r.Seq, fmt.Sprintf("ops=%d", r.Ops))
		case rsm.Decided:
			// The decision-latency sample spans launch to decide quorum
			// (clamped: a wall-clock step or virtual-time seam could
			// make the difference negative).
			now := p.cfg.Clock.Now()
			p.hLatency.Observe(max(now, r.Launched) - r.Launched)
			p.trace(obs.EvDecide, now, r.Seq, fmt.Sprintf("ops=%d", r.Ops))
		case rsm.Expired:
			p.cTimeouts.Inc()
		}
		if r.Kind != rsm.Expired {
			p.cDecided.Add(uint64(len(r.Refs)))
		}
		if len(r.Refs) > 0 {
			done = append(done, r)
		}
	}
	return done
}

// complete hands each report to the operations it names (each Ref is
// buffered(1) and completed once, so this never blocks).
func complete(done []rsm.Report) {
	for _, r := range done {
		for _, ref := range r.Refs {
			ref.(chan rsm.Report) <- r
		}
	}
}

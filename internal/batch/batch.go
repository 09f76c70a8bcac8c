// Package batch is the client-side batching and pipelining gateway of
// the RSM (§7): it accepts many concurrent Update/Read operations,
// coalesces them into single lattice proposals (Generalized Lattice
// Agreement decides *joins* of concurrent proposals, so batching is
// semantically free), keeps several proposals in flight at once, and
// fans each decision back to the callers that contributed to it.
//
// The pipeline preserves the per-operation client semantics of
// Algorithms 5 and 6: an update completes when f+1 distinct replicas
// report decide values containing every command of its batch (Alg 5
// line 4), and a read additionally runs the confirmation phase on the
// candidate decision values before returning (Alg 6 lines 7-12).
// Concurrent reads coalesce onto one nop marker per batch, so k
// concurrent reads cost one confirmation round instead of k.
//
// Flow control is explicit: the request queue is bounded (QueueDepth),
// at most MaxInFlight proposals are outstanding, and every entry point
// honours context cancellation. A batch launches as soon as a flight
// slot is free, and while every slot is busy it keeps absorbing queued
// operations (up to MaxBatch), with no timer involved, so idle
// callers pay no added latency and saturated pipelines amortize
// agreement rounds across many operations. The replicas batch again
// on their side (GWTS folds every value received during a round into
// the next proposal).
package batch

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
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
	if c.SubmitTo == nil {
		quota := core.ReadQuorum(c.F)
		if quota > len(c.Replicas) {
			quota = len(c.Replicas)
		}
		c.SubmitTo = c.Replicas[:quota]
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

// result is one operation's outcome.
type result struct {
	value lattice.Set // confirmed state (reads only)
	err   error
}

// request is one queued operation.
type request struct {
	cmd  lattice.Item // update command (zero for reads)
	read bool
	at   time.Time   // enqueue time: OpTimeout runs from here
	done chan result // buffered(1): flight completion never blocks
}

type flightPhase int

const (
	phaseDecide flightPhase = iota
	phaseConfirm
)

// flight is one in-flight proposal: a batch of commands plus the Alg
// 5/6 wait state shared by every operation in the batch.
type flight struct {
	seq      uint64
	items    []lattice.Item // every command of the batch (incl. read nop)
	updates  []*request
	reads    []*request
	phase    flightPhase
	launched uint64 // Clock timestamp at launch (decision latency)

	deciders   *ident.Set                     // distinct replicas deciding ⊇ items
	candidates map[lattice.Digest]lattice.Set // decide values seen (digest -> value)
	confirmers map[lattice.Digest]*ident.Set  // per-candidate confirmation quorums
	timer      *time.Timer
}

// Pipeline is the batching gateway. All methods are safe for concurrent
// use.
type Pipeline struct {
	cfg  Config
	send Sender

	reqs    chan *request
	replies chan reply
	tokens  chan struct{} // in-flight slots: send = acquire
	closed  chan struct{}
	once    sync.Once
	wg      sync.WaitGroup

	mu      sync.Mutex
	flights map[uint64]*flight
	seq     uint64

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
		reqs:    make(chan *request, cfg.QueueDepth),
		replies: make(chan reply, replyBuffer(cfg)),
		tokens:  make(chan struct{}, cfg.MaxInFlight),
		closed:  make(chan struct{}),
		flights: make(map[uint64]*flight),
		seq:     cfg.StartSeq,
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
	reg.GaugeFunc("bgla_inflight", func() int64 { return int64(len(p.tokens)) }, "shard", sh)
	p.wg.Add(2)
	go p.collect()
	go p.dispatch()
	return p, nil
}

// Close shuts the pipeline down; blocked callers return ErrClosed.
func (p *Pipeline) Close() {
	p.once.Do(func() {
		close(p.closed)
		p.mu.Lock()
		for seq, f := range p.flights {
			f.timer.Stop()
			delete(p.flights, seq)
			completeReqs(f.updates, ErrClosed)
			completeReqs(f.reads, ErrClosed)
		}
		p.mu.Unlock()
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
	_, err := p.do(ctx, &request{cmd: cmd, done: make(chan result, 1)})
	return err
}

// Read enqueues a read and blocks until a confirmed state is available
// (Alg 6). The returned set is the raw decision value: read markers are
// still present (rsm.StripNops removes them).
func (p *Pipeline) Read(ctx context.Context) (lattice.Set, error) {
	return p.do(ctx, &request{read: true, done: make(chan result, 1)})
}

func (p *Pipeline) do(ctx context.Context, r *request) (lattice.Set, error) {
	r.at = time.Now()
	select {
	case p.reqs <- r:
	case <-ctx.Done():
		return lattice.Empty(), ctx.Err()
	case <-p.closed:
		return lattice.Empty(), ErrClosed
	}
	select {
	case res := <-r.done:
		return res.value, res.err
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

// collect coalesces queued requests into batches and launches flights:
// a batch keeps absorbing queued requests (up to MaxBatch) for as long
// as every flight slot is busy, and launches the moment one frees.
func (p *Pipeline) collect() {
	defer p.wg.Done()
	for {
		var first *request
		select {
		case first = <-p.reqs:
		case <-p.closed:
			return
		}
		batch := p.drainInto([]*request{first})
		for acquired := false; !acquired; {
			in := p.reqs
			if len(batch) >= p.cfg.MaxBatch {
				in = nil
			}
			select {
			case r := <-in:
				batch = append(batch, r)
			case p.tokens <- struct{}{}:
				acquired = true
			case <-p.closed:
				completeReqs(batch, ErrClosed)
				return
			}
		}
		p.launch(p.drainInto(batch))
	}
}

// drainInto opportunistically empties the queue into the batch.
func (p *Pipeline) drainInto(batch []*request) []*request {
	for len(batch) < p.cfg.MaxBatch {
		select {
		case r := <-p.reqs:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// launch registers a flight and submits its commands to f+1 replicas.
func (p *Pipeline) launch(batch []*request) {
	f := &flight{
		deciders:   ident.NewSet(),
		candidates: map[lattice.Digest]lattice.Set{},
		confirmers: map[lattice.Digest]*ident.Set{},
	}
	p.mu.Lock()
	p.seq++
	f.seq = p.seq
	for _, r := range batch {
		if r.read {
			f.reads = append(f.reads, r)
		} else {
			f.updates = append(f.updates, r)
			f.items = append(f.items, r.cmd)
		}
	}
	if len(f.reads) > 0 {
		// One nop marker serves every read of the batch (Alg 6 line 3).
		f.items = append(f.items, rsm.NopCmd(p.cfg.Client, int(f.seq)))
	}
	p.cFlights.Inc()
	p.cUpdates.Add(uint64(len(f.updates)))
	p.cReads.Add(uint64(len(f.reads)))
	p.gMaxBatch.SetMax(int64(len(batch)))
	f.launched = p.cfg.Clock.Now()
	p.trace(obs.EvPropose, f.launched, f.seq, fmt.Sprintf("ops=%d", len(batch)))
	// OpTimeout runs from enqueue: the flight inherits the deadline of
	// its oldest operation, so queueing delay is not free extra time.
	oldest := batch[0].at
	for _, r := range batch[1:] {
		if r.at.Before(oldest) {
			oldest = r.at
		}
	}
	remaining := p.cfg.OpTimeout - time.Since(oldest)
	if remaining <= 0 {
		p.cTimeouts.Inc()
		completeReqs(f.updates, ErrTimeout)
		completeReqs(f.reads, ErrTimeout)
		p.mu.Unlock()
		<-p.tokens
		return
	}
	p.flights[f.seq] = f
	f.timer = time.AfterFunc(remaining, func() { p.expire(f.seq) })
	p.mu.Unlock()
	for _, it := range f.items {
		for _, to := range p.cfg.SubmitTo {
			p.send.Send(to, msg.NewValue{Cmd: it})
		}
	}
}

// dispatch routes replica notifications to in-flight batches by
// content: a reply matches every flight whose wait state it advances,
// so a notification is never lost to a stale-drop race.
func (p *Pipeline) dispatch() {
	defer p.wg.Done()
	for {
		select {
		case r := <-p.replies:
			p.handleReply(r)
		case <-p.closed:
			return
		}
	}
}

func (p *Pipeline) handleReply(r reply) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch v := r.m.(type) {
	case msg.Decide:
		for _, f := range p.flights {
			p.onDecide(f, r.from, v)
		}
	case msg.CnfRep:
		for _, f := range p.flights {
			p.onCnfRep(f, r.from, v)
		}
	}
}

// containsAll reports whether value covers every command of the flight.
func containsAll(value lattice.Set, items []lattice.Item) bool {
	for _, it := range items {
		if !value.Contains(it) {
			return false
		}
	}
	return true
}

// onDecide advances a flight in the decide phase (Alg 5 line 4 /
// Alg 6 line 6); the caller holds p.mu.
func (p *Pipeline) onDecide(f *flight, from ident.ProcessID, d msg.Decide) {
	if f.phase != phaseDecide || !containsAll(d.Value, f.items) {
		return
	}
	f.deciders.Add(from)
	dig := d.Value.Digest()
	if _, ok := f.candidates[dig]; !ok {
		f.candidates[dig] = d.Value
	}
	if f.deciders.Len() < core.ReadQuorum(p.cfg.F) {
		return
	}
	// Decide quorum reached: the decision-latency sample spans launch to
	// here (clamped — a wall-clock step or virtual-time seam could make
	// the difference negative).
	now := p.cfg.Clock.Now()
	if now > f.launched {
		p.hLatency.Observe(now - f.launched)
	} else {
		p.hLatency.Observe(0)
	}
	p.trace(obs.EvDecide, now, f.seq, fmt.Sprintf("ops=%d", len(f.updates)+len(f.reads)))
	// Updates complete at decide quorum.
	p.cDecided.Add(uint64(len(f.updates)))
	completeReqs(f.updates, nil)
	f.updates = nil
	if len(f.reads) == 0 {
		p.finish(f)
		return
	}
	// Reads confirm each candidate decision value with all replicas
	// (Alg 6 lines 7-8).
	f.phase = phaseConfirm
	for _, val := range f.candidates {
		for _, to := range p.cfg.Replicas {
			p.send.Send(to, msg.CnfReq{Value: val})
		}
	}
}

// onCnfRep counts confirmations; f+1 for one candidate completes the
// batch's reads (Alg 6 lines 9-12); the caller holds p.mu.
func (p *Pipeline) onCnfRep(f *flight, from ident.ProcessID, rep msg.CnfRep) {
	if f.phase != phaseConfirm {
		return
	}
	dig := rep.Value.Digest()
	if _, ok := f.candidates[dig]; !ok {
		return // not a value this flight asked about
	}
	set := f.confirmers[dig]
	if set == nil {
		set = ident.NewSet()
		f.confirmers[dig] = set
	}
	set.Add(from)
	if set.Len() < core.ReadQuorum(p.cfg.F) {
		return
	}
	p.cDecided.Add(uint64(len(f.reads)))
	for _, r := range f.reads {
		r.done <- result{value: rep.Value}
	}
	f.reads = nil
	p.finish(f)
}

// finish retires a flight and frees its slot; the caller holds p.mu.
func (p *Pipeline) finish(f *flight) {
	f.timer.Stop()
	delete(p.flights, f.seq)
	<-p.tokens
}

// expire fails a flight that outlived OpTimeout.
func (p *Pipeline) expire(seq uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.flights[seq]
	if !ok {
		return
	}
	p.cTimeouts.Inc()
	completeReqs(f.updates, ErrTimeout)
	completeReqs(f.reads, ErrTimeout)
	delete(p.flights, f.seq)
	<-p.tokens
}

// completeReqs completes requests with err (nil = success without a value).
func completeReqs(reqs []*request, err error) {
	for _, r := range reqs {
		r.done <- result{value: lattice.Empty(), err: err}
	}
}

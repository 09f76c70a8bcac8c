// Package faultnet is the repository's one virtual-time engine: a
// seed-reproducible discrete-event network over proto.Machines in the
// asynchronous model of §3, with authenticated reliable links whose
// delays are adversarially controllable. Virtual time is measured in
// message delays — every cross-process hop costs at least one unit,
// local processing and self-delivery cost zero — so a decision's
// timestamp is the longest causal message chain behind it, the exact
// quantity bounded by Theorems 3 and 8.
//
// It runs in two modes over the same queue and delivery path. Run
// drives a closed world (the paper tables, bgla.Solve, protocol tests)
// on the calling goroutine to quiescence or a limit. Start makes it the
// deterministic full-stack fault-injection harness: a transport with
// the same surface as chanet/tcpnet (Start / Inject / Stop), so the
// entire public stack — bgla.Service and bgla.Store with sharding,
// batching, checkpoint compaction and state transfer — runs unmodified
// on top of it while a scripted or randomized fault schedule delays,
// reorders, duplicates and partitions traffic, crash-restarts replicas
// mid-round, and hosts active Byzantine replicas (internal/byz) in
// full-stack slots.
//
// # Determinism model
//
// All protocol machines are driven inline by a single dispatcher
// goroutine from a priority queue ordered by (virtual time, class,
// content, sequence): machine-to-machine cascades are exactly
// reproducible from the seed, and identical to a closed-world Run of
// the same machines. The live stack
// additionally injects from real client goroutines (the batching
// pipelines); those injections are *staged* and admitted only at
// admission points — when the queue is empty, or when the next queued
// delivery is beyond a virtual-time lull (a partition backlog) — after
// a real-time stability window during which no further injection
// arrived. Admitted traffic is insulated from goroutine-timing races
// three ways: it is aligned to the next virtual-time Quantum slot (so
// landing in this window or the next yields the same placement), its
// delays come from per-message content-keyed rng streams (so batch
// composition cannot permute draws), and it occupies a separate heap
// class tie-broken by content (so push order cannot decide ties). The
// guarantee: runs whose client operations are issued sequentially
// (each operation blocking before the next, the pattern of the
// scenario suite) produce byte-identical event traces for the same
// seed. Concurrent client workloads remain reproducible in protocol
// behaviour but not bit-exact in trace bytes; the randomized explorer
// uses them without trace assertions.
//
// The paper assumes reliable links, so faults never drop messages:
// a partition is an unbounded-then-healed delay, crash-restart loses a
// replica's state (not the links), and Byzantine replicas misbehave at
// the protocol layer. DESIGN.md §7 maps each fault to the model
// assumptions of the paper's §3.
package faultnet

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Options tunes the network.
type Options struct {
	// Seed drives every random draw (delays, schedule probabilities).
	// Identical seed + identical interaction sequence = identical run.
	Seed int64
	// Delay is the base per-hop delay model (nil = Fixed(1), a
	// synchronous network). A started net needs a Fixed or Uniform
	// model, whose bound sizes its lull gap.
	Delay DelayModel
	// Stability is the real-time window an admission point waits for
	// the staged injection set to stop growing before sequencing it
	// (default 1ms). It only has to keep one injector's consecutive
	// sends together (sequential workloads never have two client
	// bursts outstanding); larger values tolerate heavier machine load
	// at the cost of wall-clock time per admission point.
	Stability time.Duration
	// Quantum aligns admitted client traffic to virtual-time slots
	// (default 64 ticks): an admitted message is delivered at the next
	// slot boundary after its admission point, not at "now". Admission
	// points are queue-empty moments, whose placement races the client
	// goroutines' reaction latency; slot alignment — with per-message
	// content-keyed delay rngs and content tie-breaking in the queue —
	// makes a client message's placement a pure function of (seed,
	// slot, content), so neither the admission window it lands in nor
	// the batch it shares can reach the trace.
	Quantum uint64
	// Schedule is the fault schedule (nil = fault-free).
	Schedule *Schedule
	// Trace, when non-nil, records every delivery for byte-identical
	// replay comparison.
	Trace *Trace
	// Transcode, when non-nil, is applied to every cross-process
	// delivery immediately before it reaches the receiving machine —
	// the hook point for pushing deliveries through real wire codecs
	// (encode at the sender, decode at the receiver) so codec mixes
	// are exercised under full fault schedules. It runs on the
	// dispatcher goroutine, so per-link codec state needs no locking.
	// Returning nil drops the delivery, as a transport would drop a
	// malformed frame; the delivery is traced either way, so a
	// codec-induced drop shows up as a trace divergence.
	Transcode func(from, to ident.ProcessID, m msg.Msg) msg.Msg
}

// item is one queued delivery. cls separates machine-emitted traffic
// (0) from admitted client injections (1): at equal delivery times
// machine traffic goes first, and client items order by content key —
// so the *relative* push order of racy client admissions never
// affects delivery order.
type item struct {
	time uint64
	cls  uint8
	seq  uint64
	key  string // content tie-break for client-class items
	from ident.ProcessID
	to   ident.ProcessID
	m    msg.Msg
}

type queue []*item

func (q queue) Len() int { return len(q) }
func (q queue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	if q[i].cls != q[j].cls {
		return q[i].cls < q[j].cls
	}
	if q[i].key != q[j].key {
		return q[i].key < q[j].key
	}
	return q[i].seq < q[j].seq
}
func (q queue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)   { *q = append(*q, x.(*item)) }
func (q *queue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// staged is one client injection awaiting admission.
type staged struct {
	from ident.ProcessID
	to   ident.ProcessID
	m    msg.Msg
}

// Net is the deterministic fault-injection network. It satisfies the
// transport surface the Service/Store hooks expect (Start, Inject,
// Stop) and is driven by one dispatcher goroutine.
type Net struct {
	opts     Options
	machines map[ident.ProcessID]proto.Machine
	ids      []ident.ProcessID

	mu          sync.Mutex
	cond        *sync.Cond
	q           queue
	stage       []staged
	now         uint64
	seq         uint64
	steps       uint64
	rng         *rand.Rand // machine-emitted traffic
	gap         uint64     // lull gap, fixed at Start
	metrics     Metrics
	closedWorld bool // a Run: keep the timeline
	timeline    []TimedEvent
	running     bool
	stopping    bool
	idle        bool
	holds       int
	txns        int
	done        chan struct{}
}

// New builds a network over the machines (Service/Store pass their full
// machine list, gateway included). It panics on duplicate machine IDs
// (a programming error in setup, not a runtime condition).
func New(machines []proto.Machine, opts Options) *Net {
	if opts.Delay == nil {
		opts.Delay = Fixed(1)
	}
	if opts.Stability == 0 {
		opts.Stability = time.Millisecond
	}
	if opts.Quantum == 0 {
		opts.Quantum = 64
	}
	n := &Net{
		opts:     opts,
		machines: make(map[ident.ProcessID]proto.Machine, len(machines)),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		metrics:  make(Metrics),
		done:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	for _, m := range machines {
		if _, dup := n.machines[m.ID()]; dup {
			panic(fmt.Sprintf("faultnet: duplicate machine id %v", m.ID()))
		}
		n.machines[m.ID()] = m
		n.ids = append(n.ids, m.ID())
	}
	sort.Slice(n.ids, func(i, j int) bool { return n.ids[i] < n.ids[j] })
	return n
}

// Now returns the current virtual time (racy snapshot; exact inside
// schedule actions and triggers).
func (n *Net) Now() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Start launches the dispatcher; machine Start outputs are sequenced
// before any delivery, in ascending ID order.
//
// The lull gap is the virtual-time jump beyond which the dispatcher
// treats the queue head as a far-future backlog (partition residue)
// and gives staged client traffic a chance to be sequenced first. It
// must cover a full admission quantum plus every short delay a rule
// can add, so quantized client slots are never mistaken for a backlog;
// partition windows must be much longer than this to register as
// lulls.
func (n *Net) Start() {
	gap := n.opts.Quantum + delayBound(n.opts.Delay) + 2
	if s := n.opts.Schedule; s != nil {
		gap += s.maxShortDelay()
	}
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return
	}
	n.running, n.gap = true, gap
	n.mu.Unlock()
	go n.run()
}

// Inject stages a message from a client goroutine (or test); it is
// sequenced at the next admission point. Safe for concurrent use.
func (n *Net) Inject(from, to ident.ProcessID, m msg.Msg) {
	n.mu.Lock()
	if !n.stopping {
		n.stage = append(n.stage, staged{from: from, to: to, m: m})
		n.cond.Broadcast()
	}
	n.mu.Unlock()
}

// InjectSync enqueues machine-class traffic directly, bypassing the
// admission staging. It may ONLY be called from within a machine's
// Start/Handle while this network drives it (the dispatcher
// goroutine): inline shard demuxes route their sub-machines' sends
// here, so multiplexed protocol traffic is sequenced exactly like a
// directly-hosted machine's outputs (Store wiring: implementing this
// method is what makes a bgla.Store run its demuxes inline).
func (n *Net) InjectSync(from, to ident.ProcessID, m msg.Msg) {
	n.mu.Lock()
	if !n.stopping {
		n.push(from, to, m)
	}
	n.mu.Unlock()
}

// Stop shuts the dispatcher down and waits for it. Undelivered
// messages are dropped (the run is over). Idempotent.
func (n *Net) Stop() {
	n.mu.Lock()
	if !n.running || n.stopping {
		stopped := n.stopping
		n.mu.Unlock()
		if stopped {
			<-n.done
		}
		return
	}
	n.stopping = true
	n.cond.Broadcast()
	n.mu.Unlock()
	<-n.done
}

// HoldLulls(true) stops the dispatcher from jumping virtual time over
// a far-future backlog (a partition's healed messages) while the
// queue's near-term traffic is exhausted: it waits for client
// injections instead. This removes the only real-time race of
// sequential workloads that keep operating *during* a partition — the
// client's next operation versus the heal jump. Release (false)
// before Quiesce, or the drain can never finish. Scenarios whose
// client operations need the held-back messages to complete will
// deadlock (until their op timeout) — hold only while a live majority
// can serve the workload.
func (n *Net) HoldLulls(on bool) {
	n.mu.Lock()
	if on {
		n.holds++
	} else {
		n.holds--
		if n.holds < 0 {
			n.mu.Unlock()
			panic("faultnet: unbalanced HoldLulls(false) release")
		}
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// Atomically runs fn with admission closed: everything fn injects
// (e.g. the round-0 traffic of several replicas restarted in a row) is
// sequenced as one admission batch, however long fn takes in real time.
// Call it at a quiesced point, from the harness goroutine.
func (n *Net) Atomically(fn func()) {
	n.mu.Lock()
	n.txns++
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		n.txns--
		n.cond.Broadcast()
		n.mu.Unlock()
	}()
	fn()
}

// Quiesce blocks until the network is fully drained: empty queue, no
// staged injections, dispatcher parked. Call between sequential client
// operations to pin the admission points (trace determinism), and
// before inspecting machine state mid-run.
func (n *Net) Quiesce() {
	n.mu.Lock()
	for !n.stopping && !(n.idle && len(n.stage) == 0 && len(n.q) == 0) {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// run is the dispatcher loop. It owns n.rng, n.q and virtual time; all
// machine Handle calls happen on this goroutine.
func (n *Net) run() {
	defer close(n.done)
	n.mu.Lock()
	n.startMachines()
	for !n.stopping {
		n.fireActions()
		if len(n.q) == 0 {
			if len(n.stage) == 0 {
				n.idle = true
				n.cond.Broadcast()
				n.cond.Wait()
				n.idle = false
				continue
			}
			n.admit()
			continue
		}
		if next := n.q[0]; next.time > n.now+n.gap {
			// Far-future head: a partition backlog. Sequence any staged
			// client traffic first; under HoldLulls, wait for it rather
			// than racing the client to the virtual-time jump.
			if len(n.stage) > 0 {
				n.admit()
				continue
			}
			if n.holds > 0 {
				n.cond.Wait()
				continue
			}
		}
		n.next()
	}
	n.mu.Unlock()
}

// startMachines sequences every machine's Start outputs, in ascending
// ID order, before any delivery. Called with mu held; unlocks around
// Start.
func (n *Net) startMachines() {
	heap.Init(&n.q)
	for _, id := range n.ids {
		m := n.machines[id]
		n.mu.Unlock()
		outs := m.Start()
		evs := proto.DrainEvents(m)
		n.mu.Lock()
		n.emit(id, outs)
		n.log(evs)
	}
}

// next pops the queue head, advances virtual time to it and delivers
// it. Called with mu held.
func (n *Net) next() {
	it := heap.Pop(&n.q).(*item)
	if it.time > n.now {
		n.now = it.time
	}
	n.deliver(it)
}

// log stamps a machine's drained events into a Run's timeline (a
// started net discards them). Called with mu held.
func (n *Net) log(evs []proto.Event) {
	if !n.closedWorld {
		return
	}
	for _, e := range evs {
		n.timeline = append(n.timeline, TimedEvent{Time: n.now, Event: e})
	}
}

// admit waits for any Atomically bracket to close and the staged set to
// stabilize, then sequences it in canonical order at the current virtual
// time. Called with mu held.
func (n *Net) admit() {
	for {
		for n.txns > 0 && !n.stopping {
			n.cond.Wait()
		}
		count := len(n.stage)
		n.mu.Unlock()
		time.Sleep(n.opts.Stability)
		n.mu.Lock()
		if n.stopping {
			return
		}
		if len(n.stage) == count && n.txns == 0 {
			break
		}
	}
	// Canonical order: concurrent injectors (a Scan's S shard fan-out)
	// stage in racy order; sorting by the content key (computed once
	// per entry — it digests the payload) makes the admitted sequence
	// a pure function of the batch's contents.
	type keyed struct {
		s   staged
		key string
	}
	batch := make([]keyed, len(n.stage))
	for i, s := range n.stage {
		batch[i] = keyed{s: s, key: fmt.Sprintf("%d|%d|%s", s.to, s.from, contentKey(s.m))}
	}
	n.stage = nil
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].key < batch[j].key })
	// Slot alignment: the batch is "sent" at the next quantum boundary,
	// not at now — so whichever admission window a client burst lands
	// in, its delivery schedule (and every rng draw it causes, taken
	// from its content-keyed stream) is identical.
	slot := (n.now/n.opts.Quantum + 1) * n.opts.Quantum
	for _, k := range batch {
		n.pushClient(k.s.from, k.s.to, k.s.m, slot, k.key)
	}
}

const (
	machineClass uint8 = 0
	clientClass  uint8 = 1

	// dupTrailSpread bounds the extra delay a duplicate copy trails
	// its original by (1 + rng[0, dupTrailSpread)); the schedule's
	// lull accounting budgets dupTrailAllowance for it.
	dupTrailSpread    = 8
	dupTrailAllowance = dupTrailSpread + 1
)

// contentKey is a message's deterministic content identity, O(1) in
// history (PayloadKey digests carried sets; shard envelopes key their
// inner payload instead of falling back to full serialization).
func contentKey(m msg.Msg) string {
	if sm, ok := m.(msg.ShardMsg); ok && sm.Inner != nil {
		return fmt.Sprintf("s%d|%s", sm.Shard, msg.PayloadKey(sm.Inner))
	}
	return msg.PayloadKey(m)
}

// push enqueues one machine-emitted send. Called with mu held, on the
// dispatcher (or pre-start) goroutine only.
func (n *Net) push(from, to ident.ProcessID, m msg.Msg) {
	n.pushAt(from, to, m, n.now, machineClass, "")
}

// pushClient enqueues one admitted client send at its quantum slot,
// with the admission loop's precomputed content key.
func (n *Net) pushClient(from, to ident.ProcessID, m msg.Msg, slot uint64, key string) {
	n.pushAt(from, to, m, slot, clientClass, key)
}

// pushAt enqueues one send as of virtual time sendT. Machine traffic
// draws delays from the shared seeded stream (its push order is
// deterministic); client traffic draws from a per-message rng keyed by
// the message's content, so neither the admission batch a message
// lands in nor its neighbors can shift its placement.
func (n *Net) pushAt(from, to ident.ProcessID, m msg.Msg, sendT uint64, cls uint8, key string) {
	if _, ok := n.machines[to]; !ok {
		return // nonexistent destination: dropped
	}
	rng := n.rng
	if cls == clientClass {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s", n.opts.Seed, key)))
		rng = rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
	}
	var at uint64
	copies := 1
	if from == to && cls == machineClass {
		at = sendT // self-delivery is free
	} else {
		at = sendT + max(1, n.opts.Delay.Delay(from, to, m, sendT, rng))
		n.metrics.record(from, m.Kind())
		if s := n.opts.Schedule; s != nil {
			var extraCopies int
			at, extraCopies = s.apply(from, to, sendT, at, rng)
			copies += extraCopies
		}
	}
	for c := 0; c < copies; c++ {
		n.seq++
		t := at
		if c > 0 {
			// Duplicates trail the original by a fresh short delay.
			t = at + 1 + uint64(rng.Int63n(dupTrailSpread))
		}
		heap.Push(&n.q, &item{time: t, cls: cls, seq: n.seq, key: key, from: from, to: to, m: m})
	}
}

// emit routes machine outputs, expanding broadcasts in ID order.
// Called with mu held.
func (n *Net) emit(from ident.ProcessID, outs []proto.Output) {
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		if o.To == proto.Broadcast {
			for _, to := range n.ids {
				n.push(from, to, o.Msg)
			}
			continue
		}
		n.push(from, o.To, o.Msg)
	}
}

// deliver hands one message to its machine inline and sequences the
// outputs. Called with mu held; unlocks around Handle.
func (n *Net) deliver(it *item) {
	m := n.machines[it.to]
	n.steps++
	step, now := n.steps, n.now
	n.mu.Unlock()
	if tr := n.opts.Trace; tr != nil {
		tr.record(step, now, it.from, it.to, it.m)
	}
	dm := it.m
	if tc := n.opts.Transcode; tc != nil && it.from != it.to {
		if dm = tc(it.from, it.to, dm); dm == nil {
			n.mu.Lock()
			return
		}
	}
	outs := m.Handle(it.from, dm)
	evs := proto.DrainEvents(m)
	n.mu.Lock()
	n.emit(it.to, outs)
	n.log(evs)
	if s := n.opts.Schedule; s != nil {
		n.fireTriggers(it)
	}
}

// actionAPI is the deterministic surface handed to schedule actions and
// triggers: they run on the dispatcher goroutine at an exact virtual
// time and may push messages straight into the queue.
type actionAPI struct{ n *Net }

// Now returns the virtual time the action fired at.
func (a actionAPI) Now() uint64 { return a.n.now }

// Send enqueues a message as if sent now (used to kick restarted
// machines with a wakeup, or to forge traffic).
func (a actionAPI) Send(from, to ident.ProcessID, m msg.Msg) {
	a.n.push(from, to, m)
}

// fireActions runs every scheduled action whose time has come, in
// schedule order, advancing virtual time to a pending action before
// any delivery scheduled at or after it would jump past: an action At
// t fires at exactly t, before every delivery with time >= t. Called
// with mu held.
func (n *Net) fireActions() {
	s := n.opts.Schedule
	if s == nil {
		return
	}
	for {
		next, ok := s.nextActionAt()
		if !ok {
			return
		}
		if next > n.now {
			if len(n.q) > 0 && n.q[0].time < next {
				return // strictly-earlier deliveries first
			}
			if len(n.q) == 0 && len(n.stage) > 0 {
				return // client admission (at now < next) first
			}
			n.now = next
		}
		s.popActions(n.now, actionAPI{n: n})
	}
}

// fireTriggers runs delivery-predicate triggers after a delivery.
// Called with mu held.
func (n *Net) fireTriggers(it *item) {
	n.opts.Schedule.fireTriggers(it.from, it.to, it.m, actionAPI{n: n})
}

// Package faultnet is the repository's one virtual-time engine: a
// seed-reproducible discrete-event network over proto.Machines in the
// asynchronous model of §3, with authenticated reliable links whose
// delays are adversarially controllable. Virtual time is measured in
// message delays — every cross-process hop costs at least one unit,
// local processing and self-delivery cost zero — so a decision's
// timestamp is the longest causal message chain behind it, the exact
// quantity bounded by Theorems 3 and 8.
//
// Run drives a closed world on the calling goroutine: the paper tables,
// bgla.Solve, the protocol tests, and the full-stack scenario harness,
// which puts the product's replica machines and rsm.Gateway client
// machines on one net. A Run can be resumed: each call continues with
// the same queue, virtual time and rng until the queue drains, a limit
// is reached or its stop condition holds. Between calls the test plays
// the world outside the machines: it sends as a client (Send), swaps a
// crashed or restarted machine into a slot (Replace) and inspects
// machine state. A fault schedule delays, reorders, duplicates and
// partitions traffic and runs crash/restart actions at exact virtual
// times; active Byzantine replicas (internal/byz) are ordinary machines
// in replica slots.
//
// # Determinism model
//
// One goroutine does everything. It pops deliveries from a priority
// queue ordered by (virtual time, enqueue sequence), hands each to its
// machine inline, and enqueues the outputs with delays drawn from one
// seeded rng. The test's own calls between Runs are sequenced at the
// current virtual time, in program order. Nothing reads a clock and
// nothing races, so a run is a pure function of the seed, the machines
// and the test's calls: the same inputs give a byte-identical Trace
// whatever the load on the machine or the speed of any handler.
//
// The paper assumes reliable links, so faults never drop messages:
// a partition is an unbounded-then-healed delay, crash-restart loses a
// replica's state (not the links), and Byzantine replicas misbehave at
// the protocol layer. DESIGN.md §7 maps each fault to the model
// assumptions of the paper's §3.
package faultnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

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
	// synchronous network).
	Delay DelayModel
	// Schedule is the fault schedule (nil = fault-free).
	Schedule *Schedule
	// Trace, when non-nil, records every delivery for byte-identical
	// replay comparison.
	Trace *Trace
	// Transcode, when non-nil, is applied to every cross-process
	// delivery immediately before it reaches the receiving machine —
	// the hook point for pushing deliveries through real wire codecs
	// (encode at the sender, decode at the receiver) so codec mixes
	// are exercised under full fault schedules, and for observers that
	// return the message unchanged (Received). Returning nil drops the
	// delivery, as a transport would drop a malformed frame; the
	// delivery is traced either way, so a codec-induced drop shows up
	// as a trace divergence.
	Transcode func(from, to ident.ProcessID, m msg.Msg) msg.Msg
}

// item is one queued delivery.
type item struct {
	time uint64
	seq  uint64
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

// Net is the deterministic fault-injection network. It is not safe for
// concurrent use: Run, Send, Replace and every machine Handle happen on
// one goroutine. It is the ActionAPI that schedule actions run against.
type Net struct {
	opts     Options
	machines map[ident.ProcessID]proto.Machine
	ids      []ident.ProcessID

	q        queue
	now      uint64
	seq      uint64
	steps    uint64
	rng      *rand.Rand
	metrics  Metrics
	timeline []TimedEvent
	started  bool
}

// dupTrailSpread bounds the extra delay a duplicate copy trails its
// original by (1 + rng[0, dupTrailSpread)).
const dupTrailSpread = 8

// New builds a network over the machines. It panics on duplicate
// machine IDs (a programming error in setup, not a runtime condition).
func New(machines []proto.Machine, opts Options) *Net {
	if opts.Delay == nil {
		opts.Delay = Fixed(1)
	}
	n := &Net{
		opts:     opts,
		machines: make(map[ident.ProcessID]proto.Machine, len(machines)),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		metrics:  make(Metrics),
	}
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

// Now returns the current virtual time.
func (n *Net) Now() uint64 { return n.now }

// Send enqueues m from `from` to `to` as if sent at the current virtual
// time. Between Runs it is how a test speaks for a process outside the
// machine set (a client); inside a schedule action it forges traffic or
// kicks a machine with a wakeup. Messages to an ID the net does not
// host are dropped.
func (n *Net) Send(from, to ident.ProcessID, m msg.Msg) {
	n.pushAt(from, to, m, n.now)
}

// Replace puts m in the place of the hosted machine with m's ID — a
// crash (m drops everything) or a restart (a fresh or rehydrated
// machine) — and, once the net has started, sequences m's Start outputs
// at the current virtual time. Replacing a machine with itself starts
// it again, which a host of several sub-machines uses to start one it
// swapped in. Call it between Runs or from a schedule action.
func (n *Net) Replace(m proto.Machine) {
	if _, ok := n.machines[m.ID()]; !ok {
		panic(fmt.Sprintf("faultnet: Replace of unknown machine id %v", m.ID()))
	}
	n.machines[m.ID()] = m
	if n.started {
		n.start(m)
	}
}

// startMachines sequences every machine's Start outputs, in ascending
// ID order, before any delivery.
func (n *Net) startMachines() {
	n.started = true
	heap.Init(&n.q)
	for _, id := range n.ids {
		n.start(n.machines[id])
	}
}

// start sequences one machine's Start outputs and events.
func (n *Net) start(m proto.Machine) {
	outs := m.Start()
	n.log(proto.DrainEvents(m))
	n.emit(m.ID(), outs)
}

// next pops the queue head, advances virtual time to it and delivers
// it.
func (n *Net) next() {
	it := heap.Pop(&n.q).(*item)
	if it.time > n.now {
		n.now = it.time
	}
	n.deliver(it)
}

// log stamps a machine's drained events into the timeline.
func (n *Net) log(evs []proto.Event) {
	for _, e := range evs {
		n.timeline = append(n.timeline, TimedEvent{Time: n.now, Event: e})
	}
}

// pushAt enqueues one send as of virtual time sendT, drawing its delay,
// fault-rule adjustments and duplicate trails from the seeded stream
// (its push order is deterministic).
func (n *Net) pushAt(from, to ident.ProcessID, m msg.Msg, sendT uint64) {
	if _, ok := n.machines[to]; !ok {
		return // nonexistent destination: dropped
	}
	var at uint64
	copies := 1
	if from == to {
		at = sendT // self-delivery is free
	} else {
		at = sendT + max(1, n.opts.Delay.Delay(from, to, m, sendT, n.rng))
		n.metrics.record(from, m.Kind())
		if s := n.opts.Schedule; s != nil {
			var extraCopies int
			at, extraCopies = s.apply(from, to, sendT, at, n.rng)
			copies += extraCopies
		}
	}
	for c := 0; c < copies; c++ {
		n.seq++
		t := at
		if c > 0 {
			// Duplicates trail the original by a fresh short delay.
			t = at + 1 + uint64(n.rng.Int63n(dupTrailSpread))
		}
		heap.Push(&n.q, &item{time: t, seq: n.seq, from: from, to: to, m: m})
	}
}

// emit routes machine outputs, expanding broadcasts in ID order.
func (n *Net) emit(from ident.ProcessID, outs []proto.Output) {
	for _, o := range outs {
		if o.Msg == nil {
			continue
		}
		if o.To == proto.Broadcast {
			for _, to := range n.ids {
				n.Send(from, to, o.Msg)
			}
			continue
		}
		n.Send(from, o.To, o.Msg)
	}
}

// deliver hands one message to its machine inline and sequences the
// outputs.
func (n *Net) deliver(it *item) {
	n.steps++
	if tr := n.opts.Trace; tr != nil {
		tr.record(n.steps, n.now, it.from, it.to, it.m)
	}
	dm := it.m
	if tc := n.opts.Transcode; tc != nil && it.from != it.to {
		if dm = tc(it.from, it.to, dm); dm == nil {
			return
		}
	}
	m := n.machines[it.to]
	outs := m.Handle(it.from, dm)
	n.log(proto.DrainEvents(m))
	n.emit(it.to, outs)
	if s := n.opts.Schedule; s != nil {
		s.fireTriggers(it.from, it.to, it.m, n)
	}
}

// fireActions runs every scheduled action whose time has come, in
// schedule order, advancing virtual time to a pending action before
// any delivery scheduled at or after it would jump past: an action At
// t fires at exactly t, before every delivery with time >= t.
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
			n.now = next
		}
		s.popActions(n.now, n)
	}
}

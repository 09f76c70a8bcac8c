package faultnet

import (
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Wakeup schedules delivery of a msg.Wakeup{Tag} self-message to a
// machine at virtual time At. RSM clients use wakeups to pace operation
// submissions; protocols themselves are timer-free (fully asynchronous).
type Wakeup struct {
	At  uint64
	To  ident.ProcessID
	Tag string
}

// Limits bounds a closed-world Run.
type Limits struct {
	// MaxTime stops the run once the next delivery lies beyond it (0 =
	// no horizon). Messages scheduled past the horizon stay
	// undelivered, which is how "unbounded delay" adversaries are
	// expressed finitely.
	MaxTime uint64
	// MaxDeliveries bounds the number of deliveries as a runaway guard
	// (0 = 10 million).
	MaxDeliveries int
	// Wakeups are timer self-messages, queued before the machines start.
	Wakeups []Wakeup
}

// TimedEvent is a protocol event stamped with its virtual time.
type TimedEvent struct {
	Time  uint64
	Event proto.Event
}

// Result summarizes a closed-world run.
type Result struct {
	// EndTime is the virtual time the run stopped at.
	EndTime uint64
	// Timeline holds all protocol events in delivery order.
	Timeline []TimedEvent
	// Metrics meters the traffic.
	Metrics Metrics
	// Undelivered counts messages still queued when the run stopped
	// (only non-zero when the Limits cut the run short).
	Undelivered int
	// Deliveries is the number of deliveries processed.
	Deliveries int
}

// Decisions returns the DecideEvents of process p in timeline order.
func (r *Result) Decisions(p ident.ProcessID) []proto.DecideEvent {
	var out []proto.DecideEvent
	for _, te := range r.Timeline {
		if d, ok := te.Event.(proto.DecideEvent); ok && d.Proc == p {
			out = append(out, d)
		}
	}
	return out
}

// MaxDecisionTime returns the latest first-decision time among procs
// and whether all of them decided.
func (r *Result) MaxDecisionTime(procs []ident.ProcessID) (uint64, bool) {
	first := make(map[ident.ProcessID]uint64, len(procs))
	for _, te := range r.Timeline {
		if d, ok := te.Event.(proto.DecideEvent); ok {
			if _, seen := first[d.Proc]; !seen {
				first[d.Proc] = te.Time
			}
		}
	}
	var maxT uint64
	for _, p := range procs {
		t, ok := first[p]
		if !ok {
			return 0, false
		}
		maxT = max(maxT, t)
	}
	return maxT, true
}

// Refinements counts RefineEvents of process p.
func (r *Result) Refinements(p ident.ProcessID) int {
	n := 0
	for _, te := range r.Timeline {
		if e, ok := te.Event.(proto.RefineEvent); ok && e.Proc == p {
			n++
		}
	}
	return n
}

// Metrics counts cross-process sends per originating process and
// message kind. Broadcasts are expanded into point-to-point sends
// before counting, matching the paper's message counting ("it has to
// broadcast its proposal - cost O(n)"); self-deliveries are local
// function calls and are not counted, nor are fault-rule duplicates.
type Metrics map[ident.ProcessID]map[msg.Kind]int

func (m Metrics) record(from ident.ProcessID, k msg.Kind) {
	pk := m[from]
	if pk == nil {
		pk = make(map[msg.Kind]int)
		m[from] = pk
	}
	pk[k]++
}

// SentTotal counts all cross-process messages sent.
func (m Metrics) SentTotal() int {
	total := 0
	for _, pk := range m {
		for _, c := range pk {
			total += c
		}
	}
	return total
}

// SentByKind counts sends of one message kind.
func (m Metrics) SentByKind(k msg.Kind) int {
	total := 0
	for _, pk := range m {
		total += pk[k]
	}
	return total
}

// MaxSentByProc returns the maximum per-process send count among the
// given processes (the "messages per process" of §5.1.3).
func (m Metrics) MaxSentByProc(procs []ident.ProcessID) int {
	maxSent := 0
	for _, p := range procs {
		sent := 0
		for _, c := range m[p] {
			sent += c
		}
		maxSent = max(maxSent, sent)
	}
	return maxSent
}

// Run drives the machines as a closed world on the calling goroutine:
// the wakeups are queued, the machines start, and deliveries are
// processed exactly as the live dispatcher processes them until the
// queue is empty or a limit is reached. A net is either Run once or
// Started, never both; Inject has no effect on a Run.
func (n *Net) Run(l Limits) *Result {
	if l.MaxDeliveries == 0 {
		l.MaxDeliveries = 10_000_000
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.running {
		panic("faultnet: Run on a net that already runs")
	}
	n.running, n.closedWorld = true, true
	defer close(n.done)
	for _, w := range l.Wakeups {
		n.pushAt(w.To, w.To, msg.Wakeup{Tag: w.Tag}, w.At, machineClass, "")
	}
	n.startMachines()
	for n.steps < uint64(l.MaxDeliveries) {
		n.fireActions()
		if len(n.q) == 0 || (l.MaxTime > 0 && n.q[0].time > l.MaxTime) {
			break
		}
		n.next()
	}
	return &Result{
		EndTime:     n.now,
		Timeline:    n.timeline,
		Metrics:     n.metrics,
		Undelivered: len(n.q),
		Deliveries:  int(n.steps),
	}
}

package rsm

import (
	"cmp"
	"slices"
	"strings"

	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// GatewayConfig configures a Gateway. The fields mean what the fields
// of the same names in batch.Config mean, except that OpTimeout is in
// the driver's time unit and 0 disables expiry; MaxBatch and
// MaxInFlight must be at least 1.
type GatewayConfig struct {
	Self                  ident.ProcessID // author of the read nop markers
	F                     int
	Replicas              []ident.ProcessID // the only senders that count
	SubmitTo              []ident.ProcessID // default: the first f+1 of Replicas
	MaxBatch, MaxInFlight int
	StartSeq              uint64
	OpTimeout             uint64
}

// Request is one operation handed to a Gateway.
type Request struct {
	Read bool
	Cmd  lattice.Item // update command (updates only)
	At   uint64       // enqueue stamp: OpTimeout runs from here
	Ref  any          // the driver's handle, returned in Report.Refs
}

// ReportKind names a flight milestone.
type ReportKind int

// Flight milestones. Refs lists the operations each one completes.
const (
	Launched  ReportKind = iota // flight formed: Ops operations, Reads of them reads
	Decided                     // f+1 replicas decided it: Refs are its updates
	Confirmed                   // f+1 replicas confirmed Value: Refs are its reads
	Expired                     // OpTimeout passed: Refs are its operations left, which fail
)

// Report tells the driver about one flight milestone.
type Report struct {
	Kind       ReportKind
	Seq        uint64 // the flight sequence
	Ops, Reads int
	Launched   uint64 // the now the flight was launched at
	Refs       []any
	Value      lattice.Set
}

// flight is one outstanding proposal: a batch of commands plus the Alg
// 5/6 wait state shared by every operation in it.
type flight struct {
	seq              uint64
	items            []lattice.Item // every command of the batch (incl. read nop)
	updates, reads   []any
	launched         uint64
	deadline         uint64 // 0 = never
	confirming, done bool

	deciders   ident.Set // distinct replicas deciding ⊇ items
	candidates map[lattice.Digest]*candidate
}

// candidate is a decide value a flight saw, with its confirmers.
type candidate struct {
	value      lattice.Set
	confirmers ident.Set
}

// Gateway is the RSM client machine of Algorithms 5 and 6, batched. It
// coalesces queued operations into flights of up to MaxBatch commands,
// keeps at most MaxInFlight flights outstanding, and submits each
// flight's commands to f+1 replicas. A flight's updates complete once
// f+1 distinct replicas decided values containing all its commands
// (Alg 5 line 4); its reads, which share one nop marker, then confirm
// the candidate decision values (Alg 6 lines 7-12). Notifications from
// processes outside Replicas are ignored.
//
// The machine reads no clock: request stamps and the now of Tick are
// inputs. Submit queues, Tick expires and launches flights, Handle
// takes replica notifications; TakeReports drains what happened.
type Gateway struct {
	cfg      GatewayConfig
	replicas *ident.Set
	queue    []Request
	flights  []*flight // in launch order
	seq      uint64
	reports  []Report
}

// NewGateway builds a gateway.
func NewGateway(cfg GatewayConfig) *Gateway {
	if cfg.SubmitTo == nil {
		cfg.SubmitTo = cfg.Replicas[:min(core.ReadQuorum(cfg.F), len(cfg.Replicas))]
	}
	return &Gateway{cfg: cfg, replicas: ident.NewSet(cfg.Replicas...), seq: cfg.StartSeq}
}

// ID implements proto.Machine.
func (g *Gateway) ID() ident.ProcessID { return g.cfg.Self }

// Start implements proto.Machine; flights start with Tick.
func (g *Gateway) Start() []proto.Output { return nil }

// Submit queues an operation for a later flight.
func (g *Gateway) Submit(r Request) { g.queue = append(g.queue, r) }

// Queued reports the operations waiting for a flight.
func (g *Gateway) Queued() int { return len(g.queue) }

// InFlight reports the outstanding flights.
func (g *Gateway) InFlight() int { return len(g.flights) }

// TakeReports drains the reports of the steps since the last call.
func (g *Gateway) TakeReports() []Report {
	out := g.reports
	g.reports = nil
	return out
}

// NextDeadline reports the earliest deadline of an outstanding flight.
func (g *Gateway) NextDeadline() (uint64, bool) {
	var d uint64
	for _, f := range g.flights {
		if f.deadline != 0 && (d == 0 || f.deadline < d) {
			d = f.deadline
		}
	}
	return d, d != 0
}

// Tick advances the machine to now: it fails the flights past their
// deadline, then forms flights from the queue while a slot is free and
// submits their commands (Alg 5 line 3 / Alg 6 line 3). A flight
// inherits the deadline of its oldest operation, so queueing delay
// counts against OpTimeout; one already past it fails unsent.
func (g *Gateway) Tick(now uint64) []proto.Output {
	for _, f := range g.flights {
		if f.deadline != 0 && f.deadline <= now {
			g.expire(f)
		}
	}
	g.retire()
	var outs []proto.Output
	for len(g.queue) > 0 && len(g.flights) < g.cfg.MaxInFlight {
		n := min(len(g.queue), g.cfg.MaxBatch)
		g.seq++
		f := &flight{seq: g.seq, launched: now, candidates: map[lattice.Digest]*candidate{}}
		oldest := g.queue[0].At
		for _, r := range g.queue[:n] {
			oldest = min(oldest, r.At)
			if r.Read {
				f.reads = append(f.reads, r.Ref)
			} else {
				f.updates = append(f.updates, r.Ref)
				f.items = append(f.items, r.Cmd)
			}
		}
		g.queue = append(g.queue[:0], g.queue[n:]...)
		if len(f.reads) > 0 {
			f.items = append(f.items, NopCmd(g.cfg.Self, int(f.seq)))
		}
		g.report(f, Launched, Report{Ops: n, Reads: len(f.reads)})
		if g.cfg.OpTimeout > 0 {
			f.deadline = oldest + g.cfg.OpTimeout
			if f.deadline <= now {
				g.expire(f)
				continue
			}
		}
		g.flights = append(g.flights, f)
		for _, it := range f.items {
			for _, to := range g.cfg.SubmitTo {
				outs = append(outs, proto.Send(to, msg.NewValue{Cmd: it}))
			}
		}
	}
	return outs
}

// Handle implements proto.Machine: a replica notification advances
// every flight whose wait state it matches, by content.
func (g *Gateway) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	if !g.replicas.Has(from) {
		return nil
	}
	var outs []proto.Output
	for _, f := range g.flights {
		switch v := m.(type) {
		case msg.Decide:
			outs = g.onDecide(f, from, v.Value, outs)
		case msg.CnfRep:
			g.onCnfRep(f, from, v.Value)
		}
	}
	g.retire()
	return outs
}

// onDecide counts a decide notification that includes every command of
// the flight (Alg 5 line 4 / Alg 6 line 6); at f+1 the updates
// complete and the reads confirm each candidate value with all
// replicas (Alg 6 lines 7-8), smaller values first (ties by key) so
// the read returns the earliest confirmed state.
func (g *Gateway) onDecide(f *flight, from ident.ProcessID, value lattice.Set, outs []proto.Output) []proto.Output {
	if f.confirming {
		return outs
	}
	for _, it := range f.items {
		if !value.Contains(it) {
			return outs
		}
	}
	f.deciders.Add(from)
	if dig := value.Digest(); f.candidates[dig] == nil {
		f.candidates[dig] = &candidate{value: value}
	}
	if f.deciders.Len() < core.ReadQuorum(g.cfg.F) {
		return outs
	}
	g.report(f, Decided, Report{Ops: len(f.updates) + len(f.reads), Refs: f.updates})
	f.updates = nil
	f.confirming, f.done = true, len(f.reads) == 0
	if f.done {
		return outs
	}
	var cands []lattice.Set
	for _, c := range f.candidates {
		cands = append(cands, c.value)
	}
	slices.SortFunc(cands, func(a, b lattice.Set) int {
		return cmp.Or(cmp.Compare(a.Len(), b.Len()), strings.Compare(a.Key(), b.Key()))
	})
	for _, v := range cands {
		for _, r := range g.cfg.Replicas {
			outs = append(outs, proto.Send(r, msg.CnfReq{Value: v}))
		}
	}
	return outs
}

// onCnfRep counts a confirmation; f+1 for one candidate completes the
// flight's reads (Alg 6 lines 9-12).
func (g *Gateway) onCnfRep(f *flight, from ident.ProcessID, value lattice.Set) {
	c := f.candidates[value.Digest()]
	if !f.confirming || c == nil {
		return // not confirming, or not a value this flight asked about
	}
	c.confirmers.Add(from)
	if c.confirmers.Len() < core.ReadQuorum(g.cfg.F) {
		return
	}
	g.report(f, Confirmed, Report{Refs: f.reads, Value: value})
	f.reads, f.done = nil, true
}

// expire fails a flight's outstanding operations.
func (g *Gateway) expire(f *flight) {
	g.report(f, Expired, Report{Refs: append(f.updates, f.reads...)})
	f.updates, f.reads, f.done = nil, nil, true
}

func (g *Gateway) report(f *flight, kind ReportKind, r Report) {
	r.Kind, r.Seq, r.Launched = kind, f.seq, f.launched
	g.reports = append(g.reports, r)
}

// retire drops finished flights, freeing their slots.
func (g *Gateway) retire() {
	g.flights = slices.DeleteFunc(g.flights, func(f *flight) bool { return f.done })
}

package wal

import (
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Persister wraps a protocol machine (the GWTS replica) and tees its
// observable durability events into a Log: every DecideEvent appends
// the newly decided delta, every CkptInstallEvent persists the
// certificate + prefix as a snapshot and rotates the segment
// generation. It is transparent to the driver — outputs pass through
// untouched and events are re-buffered for the transport's own
// drain — so it slots between the replica and any transport (chanet,
// tcpnet, faultnet) exactly like the adversary wrappers do.
type Persister struct {
	inner proto.Machine
	log   *Log
	rec   *Recovered

	// logged is the cumulative decided value already durable; deltas
	// are computed against it so each item hits the log once.
	logged  lattice.Set
	ckptLen int

	events []proto.Event
}

// safeRounder is the optional surface the wrapped machine exposes for
// the Safe_r field of decided records (gwts.Machine implements it).
type safeRounder interface{ SafeRound() int }

// Rehydrator is the optional surface a machine exposes for adopting
// recovered state before it starts (gwts.Machine implements it).
type Rehydrator interface {
	Rehydrate(decided lattice.Set, safeR int, cert *msg.CkptCert, certValue lattice.Set)
}

// OpenFor opens the replica log at dir and wires m to it: when the
// directory holds recovered state and m implements Rehydrator, the
// machine adopts it before the Persister wraps it — the whole restart
// path of a durable replica in one call.
func OpenFor(fs FS, dir string, opt Options, m proto.Machine) (*Persister, error) {
	log, rec, err := Open(fs, dir, opt)
	if err != nil {
		return nil, err
	}
	if !rec.Empty() {
		if r, ok := m.(Rehydrator); ok {
			var cert *msg.CkptCert
			if rec.HasCkpt {
				c := rec.Cert
				cert = &c
			}
			r.Rehydrate(rec.Decided(), rec.SafeR, cert, rec.Base)
		}
	}
	return NewPersister(m, log, rec), nil
}

// NewPersister wraps inner. rec may be nil (fresh disk); when the
// machine was rehydrated from it, the recovered decided value seeds
// the logged set so rehydrated history is not re-appended.
func NewPersister(inner proto.Machine, log *Log, rec *Recovered) *Persister {
	p := &Persister{inner: inner, log: log, rec: rec, logged: lattice.Empty()}
	if rec != nil {
		p.logged = rec.Decided()
		if rec.HasCkpt {
			p.ckptLen = rec.Cert.Len
		}
	}
	return p
}

// Inner returns the wrapped machine (harnesses unwrap to reach the
// GWTS machine for observations).
func (p *Persister) Inner() proto.Machine { return p.inner }

// Log returns the underlying log (stats, flush).
func (p *Persister) Log() *Log { return p.log }

// Recovered returns what Open found on disk when this incarnation
// started (nil for a fresh data directory).
func (p *Persister) Recovered() *Recovered { return p.rec }

// ID implements proto.Machine.
func (p *Persister) ID() ident.ProcessID { return p.inner.ID() }

// Start implements proto.Machine.
func (p *Persister) Start() []proto.Output {
	outs := p.inner.Start()
	p.absorb()
	return outs
}

// Handle implements proto.Machine.
func (p *Persister) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	outs := p.inner.Handle(from, m)
	p.absorb()
	return outs
}

// TakeEvents implements proto.EventSource: events absorbed for
// persistence are re-surfaced for the driver.
func (p *Persister) TakeEvents() []proto.Event {
	out := p.events
	p.events = nil
	return out
}

// absorb drains the inner machine's events, persisting the durable
// ones and re-buffering all of them for the driver.
func (p *Persister) absorb() {
	for _, e := range proto.DrainEvents(p.inner) {
		switch ev := e.(type) {
		case proto.DecideEvent:
			p.onDecide(ev)
		case proto.CkptInstallEvent:
			p.onInstall(ev)
		}
		p.events = append(p.events, e)
	}
}

func (p *Persister) onDecide(ev proto.DecideEvent) {
	if ev.Value.SubsetOf(p.logged) {
		return // replays and rehydrated history carry nothing new
	}
	delta := lattice.FromItems(ev.Value.Minus(p.logged)...)
	p.logged = p.logged.Union(ev.Value)
	safeR := 0
	if sr, ok := p.inner.(safeRounder); ok {
		safeR = sr.SafeRound()
	}
	_ = p.log.AppendDecided(ev.Round, safeR, p.logged.Len(), delta)
}

func (p *Persister) onInstall(ev proto.CkptInstallEvent) {
	if ev.Cert.Len <= p.ckptLen {
		return // already snapshotted at least this deep
	}
	// The install's DecideEvent (if any) precedes this event, so
	// logged already contains the certified value; the window is
	// everything logged beyond it.
	p.logged = p.logged.Union(ev.Value)
	window := lattice.FromItems(p.logged.Minus(ev.Value)...)
	if err := p.log.SaveCheckpoint(ev.Cert, ev.Value, window); err == nil {
		p.ckptLen = ev.Cert.Len
	}
}

// Close flushes and closes the log.
func (p *Persister) Close() error { return p.log.Close() }

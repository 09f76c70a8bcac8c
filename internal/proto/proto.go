// Package proto defines the event-driven protocol framework: every
// protocol role in this repository (WTS/GWTS/SbS proposers+acceptors,
// RSM replicas and clients, Byzantine adversaries, the crash baseline)
// is a deterministic state machine that consumes delivered messages and
// emits outputs. The same machine therefore runs unchanged under the
// virtual-time engine (internal/faultnet), the live goroutine transport
// (internal/chanet) and TCP (internal/tcpnet).
package proto

import (
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
)

// Broadcast is the Output destination meaning "send to every process
// (including the sender itself)". Self-deliveries are free of delay in
// virtual time, matching the message-delay accounting of the paper.
const Broadcast ident.ProcessID = -2

// Output is one message emission: a destination and a message.
type Output struct {
	To  ident.ProcessID
	Msg msg.Msg
}

// Send builds a point-to-point output.
func Send(to ident.ProcessID, m msg.Msg) Output { return Output{To: to, Msg: m} }

// Bcast builds a broadcast output.
func Bcast(m msg.Msg) Output { return Output{To: Broadcast, Msg: m} }

// Machine is a deterministic protocol state machine. Implementations
// must not retain or mutate delivered messages, must produce outputs in
// a deterministic order, and must be driven from a single goroutine
// (drivers own all synchronization).
type Machine interface {
	// ID returns the machine's process identity.
	ID() ident.ProcessID
	// Start is invoked once before any delivery; it returns the initial
	// outputs (e.g. the disclosure broadcast of WTS).
	Start() []Output
	// Handle processes one delivered message from the authenticated
	// sender and returns the outputs it triggers.
	Handle(from ident.ProcessID, m msg.Msg) []Output
}

// EventSource is implemented by machines that report observable protocol
// events (decisions, refinements, client completions). Drivers drain
// events after Start and after every Handle call.
type EventSource interface {
	TakeEvents() []Event
}

// Event is an observable protocol event. Concrete types below.
type Event interface{ isEvent() }

// DecideEvent reports a decision: DECIDE(value) in WTS/SbS (Round 0) or
// a round decision in GWTS/GSbS.
type DecideEvent struct {
	Proc  ident.ProcessID
	Round int
	Value lattice.Set
}

func (DecideEvent) isEvent() {}

// RefineEvent reports a proposal refinement (WTS Alg 1 line 30, GWTS
// Alg 3 line 33, SbS Alg 8 line 44); counted against the Lemma 3/16
// bounds.
type RefineEvent struct {
	Proc  ident.ProcessID
	Round int
	TS    uint32
}

func (RefineEvent) isEvent() {}

// JoinRoundEvent reports that a GWTS/GSbS proposer joined a round.
type JoinRoundEvent struct {
	Proc  ident.ProcessID
	Round int
}

func (JoinRoundEvent) isEvent() {}

// ClientStartEvent reports that an RSM client operation was triggered
// (the real-time ordering anchor for linearizability checks).
type ClientStartEvent struct {
	Proc ident.ProcessID // the client
	OpID string
	Kind string // "update" or "read"
	Cmd  lattice.Item
}

func (ClientStartEvent) isEvent() {}

// ClientDoneEvent reports completion of an RSM client operation.
type ClientDoneEvent struct {
	Proc  ident.ProcessID // the client
	OpID  string
	Kind  string // "update" or "read"
	Value lattice.Set
}

func (ClientDoneEvent) isEvent() {}

// CkptInstallEvent reports that a replica installed a verified
// checkpoint certificate — locally assembled, received by broadcast,
// or completed via state transfer. The durable storage engine
// (internal/wal) snapshots the certified prefix at exactly this
// point, so the on-disk checkpoint store tracks the protocol's.
type CkptInstallEvent struct {
	Proc  ident.ProcessID
	Cert  msg.CkptCert
	Value lattice.Set
}

func (CkptInstallEvent) isEvent() {}

// RejectEvent reports that a machine discarded a malformed or
// unauthenticated message (diagnostics for fault-injection tests).
type RejectEvent struct {
	Proc   ident.ProcessID
	From   ident.ProcessID
	Kind   msg.Kind
	Reason string
}

func (RejectEvent) isEvent() {}

// Recorder is an embeddable event buffer implementing EventSource.
type Recorder struct {
	events []Event
}

// Emit appends an event.
func (r *Recorder) Emit(e Event) { r.events = append(r.events, e) }

// TakeEvents drains and returns buffered events.
func (r *Recorder) TakeEvents() []Event {
	out := r.events
	r.events = nil
	return out
}

// DrainEvents returns the machine's pending events, if it has any.
func DrainEvents(m Machine) []Event {
	if src, ok := m.(EventSource); ok {
		return src.TakeEvents()
	}
	return nil
}

package compact

import (
	"sync"

	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Restartable wraps a protocol machine so a live cluster can crash and
// later restart one process without tearing the transport down: while
// down the wrapper swallows traffic (indistinguishable from a mute
// Byzantine replica), and Swap installs a fresh machine whose Start
// outputs are emitted on the next delivery. Restart/rejoin tests use
// it to show a replica that lost all state catching up through
// checkpoint state transfer instead of full replay.
//
// Handle is driven by the transport's single machine goroutine; Swap
// and Crash may be called from any goroutine (a mutex serializes them
// against Handle).
type Restartable struct {
	id ident.ProcessID

	mu      sync.Mutex
	inner   proto.Machine
	down    bool
	started bool
	events  []proto.Event
}

// NewRestartable wraps m.
func NewRestartable(m proto.Machine) *Restartable {
	return &Restartable{id: m.ID(), inner: m}
}

// ID implements proto.Machine.
func (r *Restartable) ID() ident.ProcessID { return r.id }

// Start implements proto.Machine.
func (r *Restartable) Start() []proto.Output {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started = true
	if r.down || r.inner == nil {
		return nil
	}
	outs := r.inner.Start()
	r.events = append(r.events, proto.DrainEvents(r.inner)...)
	return outs
}

// Handle implements proto.Machine: traffic is dropped while down.
func (r *Restartable) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down || r.inner == nil {
		return nil
	}
	var outs []proto.Output
	if !r.started {
		outs = append(outs, r.inner.Start()...)
		r.started = true
	}
	outs = append(outs, r.inner.Handle(from, m)...)
	r.events = append(r.events, proto.DrainEvents(r.inner)...)
	return outs
}

// TakeEvents implements proto.EventSource.
func (r *Restartable) TakeEvents() []proto.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events = nil
	return out
}

// Crash silences the process: state is retained but unreachable, like
// a wedged host. Use Swap to bring up a replacement.
func (r *Restartable) Crash() {
	r.mu.Lock()
	r.down = true
	r.mu.Unlock()
}

// Swap installs a fresh machine (restart-from-empty) and brings the
// process back up. The new machine's Start outputs are emitted lazily
// on its next delivery, so callers typically follow Swap with a
// msg.Wakeup injection to kick it.
func (r *Restartable) Swap(m proto.Machine) {
	r.mu.Lock()
	r.inner = m
	r.down = false
	r.started = false
	r.mu.Unlock()
}

// Inner returns the current wrapped machine (for post-quiescence state
// inspection in tests; never call while the transport is driving it).
func (r *Restartable) Inner() proto.Machine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner
}

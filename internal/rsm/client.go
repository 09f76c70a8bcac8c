package rsm

import (
	"fmt"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// OpKind distinguishes client operations.
type OpKind int

// Operation kinds.
const (
	OpUpdate OpKind = iota
	OpRead
)

// kindNames name the kinds as the client events do.
var kindNames = [...]string{OpUpdate: "update", OpRead: "read"}

// Op is one scripted client operation.
type Op struct {
	Kind OpKind
	// Body is the update command payload (updates only).
	Body string
}

// OpResult records a completed operation.
type OpResult struct {
	ID    string
	Kind  OpKind
	Cmd   lattice.Item
	Value lattice.Set // confirmed read value (reads only)
}

// Client is a sequential, scripted RSM client (Algorithms 5 and 6): it
// hands its ops one at a time to a Gateway with MaxBatch and MaxInFlight
// 1, so each op is one flight and its sequence number. Ops run
// back-to-back; Wakeup messages (scheduled by the driver) start ops at
// given times instead when Paced is set.
type Client struct {
	proto.Recorder
	cfg     ClientConfig
	gw      *Gateway
	next    int       // ops started: the current op's sequence number
	cur     *OpResult // the op in flight (nil = idle)
	results []OpResult
}

// ClientConfig configures a client.
type ClientConfig struct {
	Self ident.ProcessID
	N    int
	F    int
	// Replicas are the replica identities (p0..p_{n-1} normally).
	Replicas []ident.ProcessID
	// SubmitTo overrides which replicas receive new_value triggers
	// (default: the first f+1 of Replicas, per Alg 5 line 3). A
	// Byzantine client may under-submit (Lemma 12).
	SubmitTo []ident.ProcessID
	// Ops is the operation script, run sequentially.
	Ops []Op
	// Paced makes the client wait for a Wakeup before starting each op
	// (the driver schedules them); otherwise ops chain immediately.
	Paced bool
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	return &Client{cfg: cfg, gw: NewGateway(GatewayConfig{
		Self: cfg.Self, F: cfg.F, Replicas: cfg.Replicas, SubmitTo: cfg.SubmitTo,
		MaxBatch: 1, MaxInFlight: 1,
	})}
}

// ID implements proto.Machine.
func (c *Client) ID() ident.ProcessID { return c.cfg.Self }

// Results returns the completed operations.
func (c *Client) Results() []OpResult { return c.results }

// Done reports whether the whole script completed.
func (c *Client) Done() bool { return c.next >= len(c.cfg.Ops) && c.cur == nil }

// Start implements proto.Machine.
func (c *Client) Start() []proto.Output {
	if c.cfg.Paced {
		return nil
	}
	return c.startNext()
}

func (c *Client) startNext() []proto.Output {
	if c.cur != nil || c.next >= len(c.cfg.Ops) {
		return nil
	}
	op := c.cfg.Ops[c.next]
	c.next++
	cmd := lattice.Item{Author: c.cfg.Self, Body: op.Body}
	if op.Kind == OpRead {
		cmd = NopCmd(c.cfg.Self, c.next)
	}
	c.cur = &OpResult{ID: fmt.Sprintf("%v/op%d", c.cfg.Self, c.next), Kind: op.Kind, Cmd: cmd}
	c.Emit(proto.ClientStartEvent{Proc: c.cfg.Self, OpID: c.cur.ID, Kind: kindNames[op.Kind], Cmd: cmd})
	c.gw.Submit(Request{Read: op.Kind == OpRead, Cmd: cmd})
	return c.gw.Tick(0)
}

// Handle implements proto.Machine.
func (c *Client) Handle(from ident.ProcessID, in msg.Msg) []proto.Output {
	if _, ok := in.(msg.Wakeup); ok {
		return c.startNext()
	}
	outs := c.gw.Handle(from, in)
	for _, r := range c.gw.TakeReports() {
		if r.Kind == Confirmed || (r.Kind == Decided && c.cur.Kind == OpUpdate) {
			c.cur.Value = r.Value
			c.results = append(c.results, *c.cur)
			c.Emit(proto.ClientDoneEvent{Proc: c.cfg.Self, OpID: c.cur.ID, Kind: kindNames[c.cur.Kind], Value: r.Value})
			c.cur = nil
			if !c.cfg.Paced {
				outs = append(outs, c.startNext()...)
			}
		}
	}
	return outs
}

package rsm

import (
	"fmt"
	"reflect"
	"testing"

	"bgla/internal/byz"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// batchClient hands a Gateway its whole workload at Start and reports
// every operation's start and completion as client events, so the
// batching logic runs in virtual time under faultnet.
type batchClient struct {
	proto.Recorder
	gw      *Gateway
	ops     []Request
	flights int
	results []OpResult
}

func (b *batchClient) ID() ident.ProcessID { return b.gw.ID() }

func (b *batchClient) Start() []proto.Output {
	for i, op := range b.ops {
		op.Ref = i
		b.Emit(proto.ClientStartEvent{Proc: b.ID(), OpID: b.opID(i), Kind: kindNames[b.kind(i)], Cmd: op.Cmd})
		b.gw.Submit(op)
	}
	return b.step(nil)
}

func (b *batchClient) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	return b.step(b.gw.Handle(from, m))
}

func (b *batchClient) step(outs []proto.Output) []proto.Output {
	outs = append(outs, b.gw.Tick(0)...)
	for _, r := range b.gw.TakeReports() {
		switch r.Kind {
		case Launched:
			b.flights++
		case Decided, Confirmed:
			for _, ref := range r.Refs {
				i := ref.(int)
				b.results = append(b.results, OpResult{ID: b.opID(i), Kind: b.kind(i), Cmd: b.ops[i].Cmd, Value: r.Value})
				b.Emit(proto.ClientDoneEvent{Proc: b.ID(), OpID: b.opID(i), Kind: kindNames[b.kind(i)], Value: r.Value})
			}
		}
	}
	return outs
}

func (b *batchClient) opID(i int) string { return fmt.Sprintf("op%d", i) }

func (b *batchClient) kind(i int) OpKind {
	if b.ops[i].Read {
		return OpRead
	}
	return OpUpdate
}

// TestGatewayCoalescesClosedWorld runs 32 updates and 4 reads submitted
// at once through a Gateway (MaxBatch 64, MaxInFlight 2) against n = 4
// replicas, one of them mute: every operation completes in fewer
// flights than operations, the history satisfies the RSM properties,
// and a second run is identical.
func TestGatewayCoalescesClosedWorld(t *testing.T) {
	const n, f, client = 4, 1, ident.ProcessID(100)
	run := func() (*batchClient, []OpResult, int, uint64) {
		var ops []Request
		for i := 0; i < 36; i++ {
			if i%9 == 8 {
				ops = append(ops, Request{Read: true})
			} else {
				ops = append(ops, Request{Cmd: lattice.Item{Author: client, Body: fmt.Sprintf("add(%d)", i)}})
			}
		}
		bc := &batchClient{ops: ops, gw: NewGateway(GatewayConfig{
			Self: client, F: f, Replicas: ident.Range(n), MaxBatch: 64, MaxInFlight: 2,
		})}
		w := &world{}
		for i := 0; i < n-1; i++ {
			r, err := NewReplica(ReplicaConfig{Self: ident.ProcessID(i), N: n, F: f, Clients: []ident.ProcessID{client}})
			if err != nil {
				t.Fatal(err)
			}
			w.replicas = append(w.replicas, r)
			w.machines = append(w.machines, r)
		}
		w.machines = append(w.machines, &byz.Mute{Self: n - 1}, bc)
		res := faultnet.New(w.machines, faultnet.Options{
			Seed:  7,
			Delay: faultnet.Uniform{Lo: 1, Hi: 4},
		}).Run(faultnet.Limits{MaxTime: 5_000_000})
		assertClean(t, history(res, w), len(ops))
		return bc, bc.results, res.Metrics.SentTotal(), res.EndTime
	}
	bc, r1, s1, t1 := run()
	if len(r1) != 36 {
		t.Fatalf("%d of 36 operations completed", len(r1))
	}
	if bc.flights >= 36 {
		t.Fatalf("no coalescing: %d flights for 36 operations", bc.flights)
	}
	_, r2, s2, t2 := run()
	if s1 != s2 || t1 != t2 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("runs diverged: (%d sent, t=%d) vs (%d sent, t=%d)", s1, t1, s2, t2)
	}
}

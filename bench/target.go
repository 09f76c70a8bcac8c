package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"bgla"
	"bgla/internal/batch"
	"bgla/internal/compact"
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
	"bgla/internal/sig"
	"bgla/internal/tcpnet"
	"bgla/internal/wal"
)

const opTimeout = 10 * time.Second

// target is the system under test as a client sees it. Scope reports
// which part of the state a Read(key) covers: a shard index, or -1 for
// the whole state.
type target interface {
	Update(body string) error
	Read(key string) ([]bgla.Item, error)
	Scan() ([]bgla.Item, error)
	Scope(key string) int
	// Counters snapshots the cumulative client-side registry counters
	// (safe while the cluster runs).
	Counters() counters
	Close()
}

// counters are the R-sourced layer counts: read from the product's own
// stats accessors, cumulative since the cluster was built.
type counters struct {
	ops, flights, timeouts uint64
	decision               obs.HistSnapshot // bgla_decision_latency_ns
	perShardOps            []uint64
	scans, scanPasses      uint64
	scanRetries            uint64
	wireBytes              uint64 // bgla_wire_bytes_total, tx
	deltaFrames            uint64
	fullFrames             uint64
	nacks                  uint64
}

func serviceConfig(sp spec, seed int64, dataDir string, ins *instruments) bgla.ServiceConfig {
	cfg := bgla.ServiceConfig{
		Replicas: replicas, Faulty: faulty, Seed: seed,
		CheckpointEvery: sp.ckptEvery, OpTimeout: opTimeout,
	}
	if sp.durable {
		cfg.DataDir = dataDir
		cfg.SyncMode = "group"
	}
	if ins != nil {
		cfg.Hooks = &bgla.ServiceHooks{
			NewTransport: ins.newTransport,
			WrapReplica:  ins.wrapReplica,
			Storage:      &bgla.StorageHooks{FS: ins.wrapFS(wal.OSFS{})},
		}
	}
	return cfg
}

// build assembles the workload's cluster. dataDir is used only by
// durable workloads; ins is nil on untraced runs (no hook is installed
// at all, so the product runs exactly as shipped).
func build(sp spec, seed int64, dataDir string, ins *instruments) (target, error) {
	switch sp.deploy {
	case deployService:
		svc, err := bgla.NewService(serviceConfig(sp, seed, dataDir, ins))
		if err != nil {
			return nil, err
		}
		return serviceTarget{svc}, nil
	case deployStore:
		st, err := bgla.NewStore(bgla.ShardedConfig{
			Shards:        sp.shards,
			ServiceConfig: serviceConfig(sp, seed, dataDir, ins),
		})
		if err != nil {
			return nil, err
		}
		return storeTarget{st}, nil
	default:
		return newWireTarget(sp, seed, ins)
	}
}

type serviceTarget struct{ svc *bgla.Service }

func (t serviceTarget) Update(body string) error         { return t.svc.Update(body) }
func (t serviceTarget) Read(string) ([]bgla.Item, error) { return t.svc.Read() }
func (t serviceTarget) Scan() ([]bgla.Item, error)       { return t.svc.Read() }
func (t serviceTarget) Scope(string) int                 { return -1 }
func (t serviceTarget) Close()                           { t.svc.Close() }
func (t serviceTarget) Counters() counters {
	bs := t.svc.BatchStats()
	return counters{
		ops: bs.Ops, flights: bs.Flights, timeouts: bs.Timeouts,
		decision: t.svc.LatencyStats(), perShardOps: []uint64{bs.Ops},
	}
}

type storeTarget struct{ st *bgla.Store }

func (t storeTarget) Update(body string) error             { return t.st.Update(body) }
func (t storeTarget) Read(key string) ([]bgla.Item, error) { return t.st.Read(key) }
func (t storeTarget) Scan() ([]bgla.Item, error)           { return t.st.Scan() }
func (t storeTarget) Scope(key string) int                 { return t.st.ShardOfKey(key) }
func (t storeTarget) Close()                               { t.st.Close() }
func (t storeTarget) Counters() counters {
	ss := t.st.Stats()
	c := counters{
		ops: ss.Total.Ops, flights: ss.Total.Flights, timeouts: ss.Total.Timeouts,
		decision: t.st.LatencyStats(),
		scans:    ss.Scans, scanPasses: ss.ScanPasses, scanRetries: ss.ScanRetries,
	}
	for _, sh := range ss.PerShard {
		c.perShardOps = append(c.perShardOps, sh.Ops)
	}
	return c
}

// muteMachine is a silent Byzantine replica: it joins the mesh (so
// handshakes succeed) and never answers.
type muteMachine struct {
	proto.Recorder
	id ident.ProcessID
}

func (m *muteMachine) ID() ident.ProcessID                            { return m.id }
func (m *muteMachine) Start() []proto.Output                          { return nil }
func (m *muteMachine) Handle(ident.ProcessID, msg.Msg) []proto.Output { return nil }

// clientGateway is the client node's machine: it forwards replica
// notifications into the batching pipeline (as cmd/bglarsm does).
type clientGateway struct {
	proto.Recorder
	self    ident.ProcessID
	deliver func(from ident.ProcessID, m msg.Msg)
}

func (g *clientGateway) ID() ident.ProcessID   { return g.self }
func (g *clientGateway) Start() []proto.Output { return nil }
func (g *clientGateway) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	g.deliver(from, m)
	return nil
}

// wireTarget is the paper-faithful deployment assembled the way
// cmd/bglarsm assembles it — tcpnet nodes on loopback with
// ed25519-authenticated links and the negotiated binary+delta codec —
// plus checkpoint compaction signed with the same ed25519 keychain
// (behind sig.Cache) and replica n-1 mute.
type wireTarget struct {
	client ident.ProcessID
	nodes  []*tcpnet.Node
	pipe   *batch.Pipeline
	reg    *obs.Registry
	seq    atomic.Int64
	kc     *sig.Cache
}

func newWireTarget(sp spec, seed int64, ins *instruments) (*wireTarget, error) {
	const n = replicas
	t := &wireTarget{client: ident.ProcessID(n), reg: obs.NewRegistry()}
	t.kc = sig.NewCache(sig.NewEd25519(n+1, seed), 0)
	listeners := make([]net.Listener, n+1)
	addrs := make(map[ident.ProcessID]string, n+1)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range listeners[:i] {
				_ = open.Close()
			}
			return nil, err
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}
	peersOf := func(self ident.ProcessID) map[ident.ProcessID]string {
		peers := map[ident.ProcessID]string{}
		for p, a := range addrs {
			if p != self {
				peers[p] = a
			}
		}
		return peers
	}
	fail := func(err error) (*wireTarget, error) {
		for _, l := range listeners[len(t.nodes):] {
			_ = l.Close()
		}
		t.Close()
		return nil, err
	}
	for i := 0; i < n; i++ {
		self := ident.ProcessID(i)
		var m proto.Machine = &muteMachine{id: self}
		if i < n-1 {
			r, err := rsm.NewReplica(rsm.ReplicaConfig{
				Self: self, N: n, F: faulty, Clients: []ident.ProcessID{t.client},
				Compaction: compact.Config{
					Self: self, N: n, F: faulty,
					Keychain: t.kc, Signer: t.kc.SignerFor(self), Every: sp.ckptEvery,
				},
			})
			if err != nil {
				return fail(err)
			}
			m = r
			if ins != nil {
				m = ins.wrapReplica(0, i, r)
			}
		}
		node, err := tcpnet.NewNode(tcpnet.Config{
			Self: self, Listener: listeners[i], Peers: peersOf(self),
			Keychain: t.kc, Machine: m, Registry: t.reg,
		})
		if err != nil {
			return fail(err)
		}
		t.nodes = append(t.nodes, node)
	}
	gw := &clientGateway{self: t.client}
	clientNode, err := tcpnet.NewNode(tcpnet.Config{
		Self: t.client, Listener: listeners[n], Peers: peersOf(t.client),
		Keychain: t.kc, Machine: gw, Registry: t.reg,
	})
	if err != nil {
		return fail(err)
	}
	t.nodes = append(t.nodes, clientNode)
	t.pipe, err = batch.New(batch.Config{
		Client: t.client, Replicas: ident.Range(n), F: faulty,
		OpTimeout: opTimeout, Registry: t.reg,
	}, clientNode)
	if err != nil {
		return fail(err)
	}
	gw.deliver = t.pipe.Deliver
	for _, node := range t.nodes {
		node.Start()
	}
	return t, nil
}

func (t *wireTarget) Update(body string) error {
	return t.pipe.Update(context.Background(), rsm.UniqueCmd(t.client, int(t.seq.Add(1)), body))
}

func (t *wireTarget) Read(string) ([]bgla.Item, error) {
	v, err := t.pipe.Read(context.Background())
	if err != nil {
		return nil, err
	}
	its := rsm.StripNops(v).Items()
	out := make([]bgla.Item, len(its))
	for i, it := range its {
		out[i] = bgla.Item{Author: int(it.Author), Body: it.Body}
	}
	return out, nil
}

func (t *wireTarget) Scan() ([]bgla.Item, error) { return t.Read("") }
func (t *wireTarget) Scope(string) int           { return -1 }

func (t *wireTarget) Close() {
	if t.pipe != nil {
		t.pipe.Close()
	}
	for _, node := range t.nodes {
		node.Stop()
	}
}

func (t *wireTarget) Counters() counters {
	st := t.pipe.Stats()
	c := counters{
		ops: st.Ops, flights: st.Flights, timeouts: st.Timeouts,
		decision: t.pipe.LatencySnapshot(), perShardOps: []uint64{st.Ops},
	}
	sum := func(name string, extra ...string) uint64 {
		var total uint64
		for i := 0; i <= replicas; i++ {
			for j := 0; j <= replicas; j++ {
				labels := append([]string{"self", ident.ProcessID(i).String(), "peer", ident.ProcessID(j).String()}, extra...)
				if v, ok := t.reg.SampleCounter(name, labels...); ok {
					total += v
				}
			}
		}
		return total
	}
	c.wireBytes = sum("bgla_wire_bytes_total", "dir", "tx")
	c.deltaFrames = sum("bgla_wire_delta_frames_total")
	c.fullFrames = sum("bgla_wire_full_frames_total")
	c.nacks = sum("bgla_wire_delta_nacks_total")
	return c
}

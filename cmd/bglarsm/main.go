// Command bglarsm demonstrates the §7 replicated state machine over
// real TCP loopback connections with Ed25519-authenticated links: it
// launches n replica nodes plus a client node running the batching
// pipeline (internal/batch), drives a concurrent counter workload
// through Generalized Lattice Agreement, and prints throughput, batch
// amortization and the replicated state (confirmed by an Algorithm 6
// read over the wire).
//
// With -shards S > 1 each replica node hosts S independent lattice
// instances behind a shard.Demux, multiplexed over the same TCP mesh by
// the shard-tagged envelope, and the client runs one batching pipeline
// per shard — the deployment shape of bgla.Store on a real network. At
// S = 1 the replica sits on its node directly and the client speaks the
// unwrapped protocol.
//
// With -datadir DIR each replica appends its decided rounds to a
// per-replica write-ahead log under DIR (internal/wal); rerunning with
// the same directory restarts the cluster from local disk — recovered
// commands survive across runs and the client resumes its sequence
// beyond them. -fsync picks the durability/latency trade
// (record | group | off).
//
// Usage:
//
//	bglarsm -n 4 -f 1 -ops 64 -conc 8 -batch 64 -inflight 8 [-shards 4] [-datadir /var/lib/bgla] [-fsync group]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"bgla/internal/batch"
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
	"bgla/internal/shard"
	"bgla/internal/sig"
	"bgla/internal/tcpnet"
	"bgla/internal/wal"
)

func main() {
	n := flag.Int("n", 4, "replicas")
	f := flag.Int("f", 1, "Byzantine bound")
	ops := flag.Int("ops", 64, "counter increments to apply")
	conc := flag.Int("conc", 8, "concurrent client workers")
	batchSize := flag.Int("batch", 64, "max operations per lattice proposal (1 = unbatched)")
	inflight := flag.Int("inflight", 8, "max pipelined proposals")
	shards := flag.Int("shards", 1, "independent lattice instances multiplexed over the mesh")
	datadir := flag.String("datadir", "", "write-ahead-log root directory (empty = in-memory only; an existing directory restarts from disk)")
	fsync := flag.String("fsync", "group", "WAL fsync policy: record | group | off (with -datadir)")
	debugaddr := flag.String("debugaddr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off; use 127.0.0.1:0 for an ephemeral port)")
	linger := flag.Duration("linger", 0, "keep the cluster (and debug server) alive this long after the workload completes")
	flag.Parse()

	if err := run(*n, *f, *shards, *ops, *conc, *batchSize, *inflight, *datadir, *fsync, *debugaddr, *linger); err != nil {
		fmt.Fprintf(os.Stderr, "bglarsm: %v\n", err)
		os.Exit(1)
	}
}

// startDebugServer serves the obs introspection endpoints (/metrics,
// /debug/vars, /debug/pprof) on addr; empty addr disables it. The
// returned stop function closes the listener.
func startDebugServer(addr string, reg *obs.Registry) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug server: %w", err)
	}
	srv := &http.Server{Handler: obs.Handler(reg)}
	go func() { _ = srv.Serve(l) }()
	fmt.Printf("debug server: http://%s/metrics (also /debug/vars, /debug/pprof)\n", l.Addr())
	return func() { _ = srv.Close() }, nil
}

// lingerFor keeps the process alive so the debug endpoints stay
// scrapeable after the workload summary printed.
func lingerFor(d time.Duration) {
	if d <= 0 {
		return
	}
	fmt.Printf("lingering %v for scrapes...\n", d)
	time.Sleep(d)
}

// printLatency reports the decision-latency percentiles of one
// (possibly merged) histogram snapshot.
func printLatency(snap obs.HistSnapshot) {
	if snap.Count == 0 {
		return
	}
	ms := func(q float64) float64 { return snap.Quantile(q) / 1e6 }
	fmt.Printf("decision latency: p50 %.2fms  p99 %.2fms  p999 %.2fms (%d flights)\n",
		ms(0.5), ms(0.99), ms(0.999), snap.Count)
}

// pipeGateway is the client node's protocol machine: it forwards
// replica notifications into the batching pipeline.
type pipeGateway struct {
	proto.Recorder
	self    ident.ProcessID
	deliver func(from ident.ProcessID, m msg.Msg)
}

func (g *pipeGateway) ID() ident.ProcessID   { return g.self }
func (g *pipeGateway) Start() []proto.Output { return nil }
func (g *pipeGateway) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	g.deliver(from, m)
	return nil
}

// openNodeLog opens (and recovers) one replica's durable log when a
// data directory is configured, returning the persisting machine to
// place on the node, the recovered command count, and the highest
// client sequence number found on disk.
func openNodeLog(datadir, fsync string, shardIdx, replica int, clientID ident.ProcessID, r proto.Machine) (proto.Machine, int, int, error) {
	if datadir == "" {
		return r, 0, 0, nil
	}
	pol, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, 0, 0, err
	}
	p, err := wal.OpenFor(wal.OSFS{}, wal.ReplicaDir(datadir, shardIdx, replica), wal.Options{Policy: pol}, r)
	if err != nil {
		return nil, 0, 0, err
	}
	recovered, maxSeq := 0, 0
	if rec := p.Recovered(); rec != nil && !rec.Empty() {
		decided := rec.Decided()
		recovered = rsm.CountCmds(decided)
		maxSeq = rsm.MaxSeq(clientID, decided)
	}
	return p, recovered, maxSeq, nil
}

// run deploys the cluster and drives the counter workload. At S = 1
// each replica is its node's machine and the client runs one pipeline
// behind a plain gateway; at S > 1 each node hosts S replicas behind a
// shard.Demux and the client runs one pipeline per shard.
func run(n, f, shards, ops, conc, batchSize, inflight int, datadir, fsync, debugaddr string, linger time.Duration) error {
	if shards < 1 {
		return fmt.Errorf("%d shards", shards)
	}
	// One registry backs every instrument in the process: pipeline
	// counters, decision-latency histogram, per-peer wire-codec stats.
	reg := obs.NewRegistry()
	// One extra identity in the PKI: the client node is process n.
	clientID := ident.ProcessID(n)
	kc := sig.NewEd25519(n+1, time.Now().UnixNano())
	listeners := make([]net.Listener, n+1)
	addrs := make(map[ident.ProcessID]string, n+1)
	for i := 0; i <= n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		listeners[i] = l
		addrs[ident.ProcessID(i)] = l.Addr().String()
	}
	if shards == 1 {
		fmt.Printf("launching %d replicas (f=%d) + 1 batching client on loopback TCP:\n", n, f)
	} else {
		fmt.Printf("launching %d replicas (f=%d) x %d lattice shards + 1 client on loopback TCP:\n", n, f, shards)
	}
	for i := 0; i <= n; i++ {
		role := "replica"
		if i == n {
			role = "client "
		}
		fmt.Printf("  %s %d -> %s\n", role, i, addrs[ident.ProcessID(i)])
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
	all := append(ident.Range(n), clientID)

	var nodes []*tcpnet.Node
	var demuxes []*shard.Demux
	defer func() {
		for _, node := range nodes {
			node.Stop()
		}
		for _, d := range demuxes {
			d.Stop()
		}
	}()
	// At S = 1 replica progress is tracked through the node event
	// streams: machine state must never be read while a node is driving
	// it.
	progress := make([]replicaProgress, n)
	startSeq := 0
	recPerShard := make([]int, shards)
	for i := 0; i < n; i++ {
		self := ident.ProcessID(i)
		subs := make([]proto.Machine, shards)
		for s := range subs {
			r, err := rsm.NewReplica(rsm.ReplicaConfig{
				Self: self, N: n, F: f, Clients: []ident.ProcessID{clientID},
			})
			if err != nil {
				return err
			}
			m, rec, seq, err := openNodeLog(datadir, fsync, s, i, clientID, r)
			if err != nil {
				return err
			}
			recPerShard[s] = max(recPerShard[s], rec)
			startSeq = max(startSeq, seq)
			subs[s] = m
		}
		var d *shard.Demux
		m := subs[0]
		if shards > 1 {
			var err error
			if d, err = shard.NewDemux(shard.DemuxConfig{Self: self, Subs: subs, All: all}); err != nil {
				return err
			}
			m = d
		}
		node, err := tcpnet.NewNode(tcpnet.Config{
			Self: self, Listener: listeners[i], Peers: peersOf(self),
			Keychain: kc, Machine: m, Registry: reg,
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
		if d != nil {
			d.SetSend(node.Send)
			demuxes = append(demuxes, d)
		} else {
			go progress[i].follow(node.Events())
		}
		node.Start()
	}
	stopDebug, err := startDebugServer(debugaddr, reg)
	if err != nil {
		return err
	}
	defer stopDebug()
	recovered := 0
	for _, r := range recPerShard {
		recovered += r
	}
	if datadir != "" {
		across := ""
		if shards > 1 {
			across = fmt.Sprintf(" across %d shards", shards)
		}
		fmt.Printf("durable WAL under %s (fsync=%s): %d commands recovered%s, client resumes at seq %d\n",
			datadir, fsync, recovered, across, startSeq+1)
	}

	// The client node: the batching pipelines send through its
	// authenticated links and receive notifications via the gateway.
	pipes := make([]*batch.Pipeline, shards)
	var gw proto.Machine = &pipeGateway{self: clientID, deliver: func(from ident.ProcessID, m msg.Msg) { pipes[0].Deliver(from, m) }}
	if shards > 1 {
		sg := shard.NewGateway(clientID, shards)
		sg.SetDeliver(func(s int, from ident.ProcessID, m msg.Msg) { pipes[s].Deliver(from, m) })
		gw = sg
	}
	clientNode, err := tcpnet.NewNode(tcpnet.Config{
		Self: clientID, Listener: listeners[n], Peers: peersOf(clientID),
		Keychain: kc, Machine: gw, Registry: reg,
	})
	if err != nil {
		return err
	}
	nodes = append(nodes, clientNode)
	for s := range pipes {
		var send batch.Sender = clientNode
		if shards > 1 {
			send = shard.NewSender(s, clientNode.Send)
		}
		p, err := batch.New(batch.Config{
			Client:      clientID,
			Replicas:    ident.Range(n),
			F:           f,
			MaxBatch:    batchSize,
			MaxInFlight: inflight,
			StartSeq:    uint64(startSeq),
			Registry:    reg,
			Shard:       s,
		}, send)
		if err != nil {
			return err
		}
		defer p.Close()
		pipes[s] = p
	}
	clientNode.Start()

	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	next := make(chan int, ops)
	for k := 0; k < ops; k++ {
		next <- k
	}
	close(next)
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				seq := startSeq + 1 + k
				cmd := rsm.UniqueCmd(clientID, seq, "inc")
				s := shard.Route("inc", uint64(seq), shards)
				if err := pipes[s].Update(ctx, cmd); err != nil {
					errs <- fmt.Errorf("op %d (shard %d): %w", k, s, err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	// Confirmed reads over the wire (Algorithm 6), one per shard.
	decided := 0
	var latency obs.HistSnapshot
	for s, p := range pipes {
		state, err := p.Read(ctx)
		if err != nil {
			return fmt.Errorf("shard %d read: %w", s, err)
		}
		cmds := rsm.CountCmds(state)
		if shards > 1 {
			st := p.Stats()
			fmt.Printf("shard %d: %d commands decided, %d flights, avg batch %.2f\n",
				s, cmds, st.Flights, st.AvgBatch())
		}
		decided += cmds
		latency.Merge(p.LatencySnapshot())
	}
	opsPerSec := float64(ops) / elapsed.Seconds()
	if shards == 1 {
		st := pipes[0].Stats()
		fmt.Printf("\nreplicated %d commands in %v (%.0f ops/sec)\n", ops, elapsed.Round(time.Millisecond), opsPerSec)
		fmt.Printf("pipeline: %d flights, avg batch %.2f, max batch %d\n",
			st.Flights, st.AvgBatch(), st.MaxBatchOps)
		printLatency(latency)
		fmt.Printf("confirmed read: %d commands visible\n", decided)
	} else {
		fmt.Printf("\nreplicated %d commands across %d shards in %v (%.0f ops/sec aggregate)\n",
			ops, shards, elapsed.Round(time.Millisecond), opsPerSec)
		printLatency(latency)
		fmt.Printf("confirmed merged read: %d commands visible\n", decided)
	}
	want := ops + recovered // this run's commands plus everything recovered from disk
	if decided != want {
		return fmt.Errorf("confirmed reads show %d commands, want %d", decided, want)
	}
	if shards > 1 {
		fmt.Println("per-shard reads confirmed: each shard's decisions form a single growing chain")
	} else {
		// The confirmed read proves f+1 replicas; wait (bounded) for
		// the rest of the cluster to catch up, via the event streams.
		converged := true
		deadline := time.Now().Add(10 * time.Second)
		for i := range progress {
			for progress[i].commands() < want && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			cmds, rounds := progress[i].snapshot()
			fmt.Printf("replica %d: %d commands decided over %d rounds\n", i, cmds, rounds)
			if cmds < want {
				converged = false
			}
		}
		if converged {
			fmt.Println("all replicas converged: decisions form a single growing chain")
		} else {
			fmt.Println("some replicas still catching up (decisions grow toward the same chain)")
		}
	}
	lingerFor(linger)
	return nil
}

// replicaProgress follows one replica's decisions through its node
// event stream (values received over a channel are safe to read).
type replicaProgress struct {
	mu     sync.Mutex
	cmds   int
	rounds int
}

func (rp *replicaProgress) follow(events <-chan proto.Event) {
	for e := range events {
		d, ok := e.(proto.DecideEvent)
		if !ok {
			continue
		}
		n := rsm.CountCmds(d.Value)
		rp.mu.Lock()
		rp.rounds++
		if n > rp.cmds {
			rp.cmds = n
		}
		rp.mu.Unlock()
	}
}

func (rp *replicaProgress) commands() int {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.cmds
}

func (rp *replicaProgress) snapshot() (int, int) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return rp.cmds, rp.rounds
}

package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"bgla/internal/batch"
	"bgla/internal/chanet"
	"bgla/internal/compact"
	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/rbc"
	"bgla/internal/sig"
	"bgla/internal/tcpnet"
	"bgla/internal/wal"
)

// Layer kernels (source K): timed direct calls to one layer's public
// functions on workload-sized inputs — a 4096-item certified base, a
// 1024-item window (CheckpointEvery), a 64-item delta (MaxBatch). Each
// kernel reports the median per-call time over several batches, so one
// GC pause or scheduler hiccup does not set the number.

const (
	kernelBase   = 4096
	kernelWindow = 1024
	kernelDelta  = 64
)

// kernelBudget is the time each kernel measures for (tests shorten it).
var kernelBudget = 60 * time.Millisecond

var sink any // keeps the compiler from discarding kernel results

// perCall times fn in batches until the budget is spent (at least five
// batches) and returns the median nanoseconds per call.
func perCall(batch int, fn func()) float64 {
	var per []float64
	deadline := time.Now().Add(kernelBudget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

func kernelItems(from, to int) []lattice.Item {
	out := make([]lattice.Item, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, lattice.Item{Author: 1_000_000, Body: fmt.Sprintf("put|%d|k%06d|v%d\x00%d", i, i%keySpace, i, i)})
	}
	return out
}

// anchoredSet returns a set of base+window items anchored on a certified
// base of the first base items, the shape every live set has once
// checkpoints install.
func anchoredSet(base, window int) lattice.Set {
	all := lattice.FromItems(kernelItems(0, base+window)...)
	s, ok := all.Rebase(lattice.NewBase(lattice.FromItems(kernelItems(0, base)...)))
	if !ok {
		panic("bench: kernel fixture: base not contained in set")
	}
	return s
}

// runKernels fills m with every K-sourced per-layer metric.
func runKernels(m map[string]float64) {
	latticeKernels(m)
	coreKernels(m)
	rbcKernel(m)
	batchKernel(m)
	msgKernels(m)
	sigKernels(m)
	walKernels(m)
	m["chanet.hop_ns"] = chanetHop()
	hop, connect := tcpnetHop()
	m["tcpnet.hop_us"] = hop
	m["tcpnet.connect_s"] = connect
}

func latticeKernels(m map[string]float64) {
	anchored := anchoredSet(kernelBase, kernelWindow)
	deltaItems := kernelItems(kernelBase+kernelWindow, kernelBase+kernelWindow+kernelDelta)
	delta := lattice.FromItems(deltaItems...)
	joined := anchored.Union(delta)
	m["lattice.union_ns"] = perCall(64, func() { sink = anchored.Union(delta) })
	m["lattice.subset_ns"] = perCall(256, func() { sink = delta.SubsetOf(joined) })
	m["lattice.digest_ns"] = perCall(64, func() { sink = lattice.FromItems(deltaItems...) })
	big := anchoredSet(39_000, 1000)
	m["lattice.items_ns"] = perCall(4, func() { sink = big.Items() })
}

func coreKernels(m map[string]float64) {
	val := anchoredSet(kernelBase, kernelWindow)
	quorum := core.AckQuorum(replicas, faulty)
	// One Add per (round, sender): the acceptor-ack shape of a decision.
	m["core.tally_add_ns"] = perCall(1, func() {
		t := core.NewAckTally()
		for r := 0; r < 256; r++ {
			for s := 0; s < replicas; s++ {
				t.Add(ident.ProcessID(s), val, 0, 1, r)
			}
		}
		sink = t
	}) / (256 * replicas)
	tally := core.NewAckTally()
	for r := 0; r < 256; r++ {
		for s := 0; s < replicas; s++ {
			tally.Add(ident.ProcessID(s), val, 0, 1, r)
		}
	}
	round := 0
	m["core.tally_quorum_ns"] = perCall(256, func() {
		sink = tally.AtQuorum(round%256, quorum)
		round++
	})
	delta := lattice.FromItems(kernelItems(kernelBase, kernelBase+kernelDelta)...)
	svs := core.NewRoundSVS()
	for r := 0; r < 4; r++ {
		svs.Add(r, ident.ProcessID(r), val)
	}
	m["core.svs_safe_ns"] = perCall(256, func() { sink = svs.SafeAny(delta) })
}

// rbcKernel runs Bracha instances to delivery on n=4, f=1 peers wired
// back to back (no transport), counting the messages one instance
// costs.
func rbcKernel(m map[string]float64) {
	payload := msg.AckB{Accepted: lattice.FromItems(kernelItems(0, kernelDelta)...), TS: 1, Round: 1}
	type hop struct {
		from, to ident.ProcessID
		m        msg.Msg
	}
	msgs, instances := 0, 0
	m["rbc.instance_ns"] = perCall(1, func() {
		peers := make([]*rbc.Peer, replicas)
		for i := range peers {
			peers[i] = rbc.NewPeer(ident.ProcessID(i), replicas, faulty)
		}
		for k := 0; k < 32; k++ {
			var queue []hop
			emit := func(from ident.ProcessID, outs []proto.Output) {
				for _, o := range outs {
					if o.To == proto.Broadcast {
						for to := range peers {
							queue = append(queue, hop{from, ident.ProcessID(to), o.Msg})
						}
					} else {
						queue = append(queue, hop{from, o.To, o.Msg})
					}
				}
			}
			emit(0, peers[0].Broadcast(fmt.Sprintf("k%d", k), payload))
			for len(queue) > 0 {
				h := queue[0]
				queue = queue[1:]
				outs, _ := peers[h.to].Handle(h.from, h.m)
				emit(h.to, outs)
				msgs++
			}
			for _, p := range peers {
				if len(p.TakeDeliveries()) != 1 {
					panic("bench: rbc kernel: instance not delivered everywhere")
				}
			}
			instances++
		}
	}) / 32
	m["rbc.msgs_per_instance"] = float64(msgs) / float64(instances)
}

// instantCluster answers every submitted command with a decide quorum
// on the spot, so only the pipeline's own work is timed.
type instantCluster struct{ pipe *batch.Pipeline }

func (c *instantCluster) Send(to ident.ProcessID, m msg.Msg) {
	if v, ok := m.(msg.NewValue); ok {
		c.pipe.Deliver(to, msg.Decide{Value: lattice.Singleton(v.Cmd)})
	}
}

func batchKernel(m map[string]float64) {
	stub := &instantCluster{}
	pipe, err := batch.New(batch.Config{Client: 1_000_000, Replicas: ident.Range(replicas), F: faulty}, stub)
	if err != nil {
		panic(err)
	}
	stub.pipe = pipe
	defer pipe.Close()
	items := kernelItems(0, 1<<16)
	next := 0
	m["batch.pipeline_ns_per_op"] = perCall(256, func() {
		if err := pipe.Update(context.Background(), items[next%len(items)]); err != nil {
			panic(err)
		}
		next++
	})
}

// msgKernels encodes and decodes a chain of ack-requests whose proposed
// set grows by a 64-item delta per message: the steady-state wire shape
// on wire-byz (binary codec, delta frames).
func msgKernels(m map[string]float64) {
	const chain = 128
	msgs := make([]msg.Msg, chain)
	set := lattice.FromItems(kernelItems(0, kernelWindow)...)
	for i := range msgs {
		lo := kernelWindow + i*kernelDelta
		set = set.Union(lattice.FromItems(kernelItems(lo, lo+kernelDelta)...))
		msgs[i] = msg.AckReq{Proposed: set, TS: uint32(i), Round: i}
	}
	// The frames the decoder is timed on (each its own slice; the timed
	// encode pass below reuses one buffer, as tcpnet's send loop does).
	enc := msg.NewDeltaEncoder()
	first, err := enc.AppendEncode(nil, msgs[0], true) // full frame: sets the base
	if err != nil {
		panic(err)
	}
	var frames [][]byte
	for _, mm := range msgs[1:] {
		f, err := enc.AppendEncode(nil, mm, true)
		if err != nil {
			panic(err)
		}
		frames = append(frames, f)
	}
	var encNS, decNS, allocs []float64
	buf := make([]byte, 0, 1<<16)
	var ms runtime.MemStats
	for rep := 0; rep < 9; rep++ {
		enc, dec := msg.NewDeltaEncoder(), msg.NewDeltaDecoder()
		if _, err := enc.AppendEncode(nil, msgs[0], true); err != nil { // untimed: sets the base
			panic(err)
		}
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t0 := time.Now()
		for _, mm := range msgs[1:] {
			if buf, err = enc.AppendEncode(buf[:0], mm, true); err != nil {
				panic(err)
			}
			sink = buf
		}
		encNS = append(encNS, float64(time.Since(t0))/(chain-1))
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.Mallocs-mallocs)/(chain-1))
		if _, nack, err := dec.Decode(first); err != nil || nack != nil {
			panic(fmt.Sprint("bench: msg kernel: first frame: ", err, nack))
		}
		t0 = time.Now()
		for _, f := range frames {
			got, nack, err := dec.Decode(f)
			if err != nil || nack != nil {
				panic(fmt.Sprint("bench: msg kernel: decode: ", err, nack))
			}
			sink = got
		}
		decNS = append(decNS, float64(time.Since(t0))/(chain-1))
	}
	bytes := 0
	for _, f := range frames {
		bytes += len(f)
	}
	m["msg.encode_bin_ns"] = median(encNS)
	m["msg.decode_bin_ns"] = median(decNS)
	m["msg.encode_bin_allocs"] = median(allocs)
	m["msg.frame_bytes"] = float64(bytes) / float64(len(frames))
}

func sigKernels(m map[string]float64) {
	kc := sig.NewEd25519(replicas, 1)
	data := []byte("bgla/bench/kernel/32-byte-message")
	s0 := kc.SignerFor(0).Sign(data)
	m["sig.ed25519_verify_ns"] = perCall(8, func() { sink = kc.Verify(0, data, s0) })
	// A certificate quorum's worth of distinct signers, as VerifyCert
	// hands them to the keychain.
	quorum := compact.CertQuorum(faulty)
	reqs := make([]sig.Request, quorum)
	for i := range reqs {
		reqs[i] = sig.Request{Signer: ident.ProcessID(i), Data: data, Sig: kc.SignerFor(ident.ProcessID(i)).Sign(data)}
	}
	m["sig.verify_batch_ns_per_sig"] = perCall(4, func() { sink = sig.VerifyBatch(kc, reqs) }) / float64(quorum)

	prefix := lattice.FromItems(kernelItems(0, kernelWindow)...)
	image := compact.ImageHash(prefix)
	cert := msg.CkptCert{Epoch: 1, Round: 7, Len: prefix.Len(), Dig: prefix.Digest(), Image: image}
	for i := 0; i < quorum; i++ {
		cert.Sigs = append(cert.Sigs, compact.Sign(kc.SignerFor(ident.ProcessID(i)), 1, 7, prefix.Len(), prefix.Digest(), image))
	}
	if !compact.VerifyCert(kc, replicas, faulty, cert) {
		panic("bench: sig kernel: certificate does not verify")
	}
	m["compact.verify_cert_ns"] = perCall(4, func() { sink = compact.VerifyCert(kc, replicas, faulty, cert) })
}

// walKernels appends 64-item decided deltas to a log on the OS
// filesystem under both fsync policies, then times recovery of what the
// group-commit log wrote.
func walKernels(m map[string]float64) {
	root, err := os.MkdirTemp(mkOutDir(), "walkernel-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	appendWith := func(dir string, policy wal.SyncPolicy, records int) float64 {
		log, _, err := wal.Open(wal.OSFS{}, dir, wal.Options{Policy: policy})
		if err != nil {
			panic(err)
		}
		var per []float64
		for i := 0; i < records; i++ {
			lo := i * kernelDelta
			delta := lattice.FromItems(kernelItems(lo, lo+kernelDelta)...)
			t0 := time.Now()
			if err := log.AppendDecided(i, i, lo+kernelDelta, delta); err != nil {
				panic(err)
			}
			per = append(per, float64(time.Since(t0)))
		}
		if err := log.Close(); err != nil {
			panic(err)
		}
		// Mean, not median: under group commit one append in GroupEvery
		// pays the fsync, and that cost belongs in the per-record figure.
		sum := 0.0
		for _, v := range per {
			sum += v
		}
		return sum / float64(len(per))
	}
	m["wal.append_group_ns"] = appendWith(root+"/group", wal.SyncGroup, 512)
	m["wal.append_record_ns"] = appendWith(root+"/record", wal.SyncRecord, 64)
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		log, rec, err := wal.Open(wal.OSFS{}, root+"/group", wal.Options{})
		if err != nil || rec.Decided().Len() != 512*kernelDelta {
			panic(fmt.Sprint("bench: wal kernel: recovery: ", err))
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		if err := log.Close(); err != nil {
			panic(err)
		}
	}
	m["wal.open_recover_ms"] = median(opens)
}

// pinger bounces a message off its peer n times and then signals done.
type pinger struct {
	proto.Recorder
	self, peer ident.ProcessID
	serve      bool // echo only
	left       int
	first      chan struct{}
	done       chan struct{}
}

func (p *pinger) ID() ident.ProcessID { return p.self }
func (p *pinger) Start() []proto.Output {
	if p.serve {
		return nil
	}
	return []proto.Output{proto.Send(p.peer, msg.Wakeup{Tag: "ping"})}
}
func (p *pinger) Handle(_ ident.ProcessID, m msg.Msg) []proto.Output {
	if !p.serve {
		if p.first != nil {
			close(p.first)
			p.first = nil
		}
		if p.left--; p.left <= 0 {
			close(p.done)
			return nil
		}
	}
	return []proto.Output{proto.Send(p.peer, m)}
}

func pingPair(rounds int) (*pinger, *pinger) {
	a := &pinger{self: 0, peer: 1, left: rounds, first: make(chan struct{}), done: make(chan struct{})}
	return a, &pinger{self: 1, peer: 0, serve: true}
}

// chanetHop is the one-way cost of a chanet delivery: two machines
// ping-pong, each hop a mailbox put plus a goroutine wake-up.
func chanetHop() float64 {
	const rounds = 20_000
	a, b := pingPair(rounds)
	net := chanet.New([]proto.Machine{a, b}, chanet.Options{})
	t0 := time.Now()
	net.Start()
	<-a.done
	elapsed := time.Since(t0)
	net.Stop()
	return float64(elapsed) / (2 * rounds)
}

// tcpnetHop is the same ping-pong over two tcpnet nodes on loopback
// (ed25519 hello, binary codec): microseconds per one-way hop, and the
// seconds from Start to the first round trip (dial + handshake).
func tcpnetHop() (hopUS, connectS float64) {
	const rounds = 5000
	a, b := pingPair(rounds)
	kc := sig.NewEd25519(2, 1)
	var ls [2]net.Listener
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		ls[i] = l
	}
	var nodes [2]*tcpnet.Node
	for i, mach := range []proto.Machine{a, b} {
		node, err := tcpnet.NewNode(tcpnet.Config{
			Self: ident.ProcessID(i), Listener: ls[i], Keychain: kc, Machine: mach,
			Peers: map[ident.ProcessID]string{ident.ProcessID(1 - i): ls[1-i].Addr().String()},
		})
		if err != nil {
			panic(err)
		}
		nodes[i] = node
	}
	first := a.first
	t0 := time.Now()
	nodes[1].Start()
	nodes[0].Start()
	<-first
	connect := time.Since(t0)
	t1 := time.Now()
	<-a.done
	elapsed := time.Since(t1)
	for _, n := range nodes {
		n.Stop()
	}
	return float64(elapsed) / (2 * (rounds - 1)) / 1e3, connect.Seconds()
}

package bgla

// The deterministic full-stack fault-injection scenario suite: the
// cluster NewStore builds (newCluster — every replica slot, WAL logs,
// mutes and WrapReplica adversaries included) runs on internal/faultnet's
// closed-world Run with one rsm.Gateway client machine per shard, under
// scripted fault schedules — reordering, duplication, healing
// partitions, lag, crash-restart with checkpoint state transfer — and
// with *active* Byzantine replicas (internal/byz) in full-stack replica
// slots. Everything runs on the test goroutine, one operation at a
// time, so every scenario replays byte-identically from its seed; the
// suite runs each twice and compares the event traces. A post-run
// invariant checker validates the paper's guarantees: total order of
// confirmed reads, comparability + inclusivity of decided values per
// shard, update visibility, and checkpoint-chain digest validity.
// DESIGN.md §7 documents the architecture.
//
// Replay: every randomized entry point takes -seed (and the explorer
// additionally -faultnet.ops to replay a shrunk schedule mask).

import (
	"bytes"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bgla/internal/byz"
	"bgla/internal/chanet"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
	"bgla/internal/shard"
	"bgla/internal/sig"
	"bgla/internal/wal"
)

var (
	seedFlag = flag.Int64("seed", 0, "override the RNG seed of randomized/stress tests (0 = default per test); failures log the seed to replay")
	opsFlag  = flag.Uint64("faultnet.ops", ^uint64(0), "fault-op bitmask for explorer replay (printed by a failing explorer run)")
)

// harness runs one cluster on the closed-world network and accumulates
// run observations for the invariant checker.
type harness struct {
	t    *testing.T
	seed int64

	c     *cluster
	kc    sig.Keychain // cfg.keychain(): nil without compaction
	net   *faultnet.Net
	trace *faultnet.Trace
	obs   *faultnet.RunObs

	// gws[s] is shard s's client machine; at S > 1 they sit in one
	// shardMux at clientID, and muxes[i] hosts replica process i's
	// shard slots.
	gws   []*rsm.Gateway
	muxes []*shardMux

	// reps[shard][slot] is the gwts machine currently serving that
	// slot (updated on restart); down marks crashed slots; received[s]
	// collects the NewValues delivered to live slots of shard s.
	reps     map[int]map[int]*gwts.Machine
	down     map[[2]int]bool
	received []faultnet.Received

	// Durable-storage state (scenarios with cfg.durable): the shared
	// deterministic filesystem, per-slot fault hooks, the persister
	// currently serving each slot, and the persisters swapped in by
	// restart.
	mfs       *wal.MemFS
	walHooks  map[[2]int]*wal.Hooks
	pers      map[int]map[int]*wal.Persister
	freshPers []*wal.Persister

	updates int // updates submitted since launch
}

// storHook returns the (memoized) storage fault hooks for one slot, so
// the log opened at launch and the one opened by restart share
// the same injection point.
func (h *harness) storHook(shard, slot int) *wal.Hooks {
	k := [2]int{shard, slot}
	if h.walHooks[k] == nil {
		h.walHooks[k] = &wal.Hooks{}
	}
	return h.walHooks[k]
}

// scenarioConfig declares one scenario's cluster and faults.
type scenarioConfig struct {
	shards    int // 0/1 = unsharded
	replicas  int
	faulty    int
	ckptEvery int
	maxDelay  uint64
	// sched builds the fault schedule for a run (fresh per run —
	// schedules are stateful).
	sched func(h *harness) *faultnet.Schedule
	// adversary, when non-nil, may replace the machine of (shard,
	// slot); return nil to keep the correct replica.
	adversary func(h *harness, shard, slot int, correct proto.Machine) proto.Machine
	mutes     []int
	// durable runs every replica on the WAL storage engine over a
	// deterministic in-memory filesystem (mfs, or a fresh wal.MemFS);
	// restart then rehydrates from disk. syncMode is the fsync policy
	// ("" = group commit).
	durable  bool
	syncMode string
	mfs      *wal.MemFS
	// obs is the cluster's observability wiring (the harness supplies
	// the virtual clock).
	obs ObsConfig
}

// launch builds the cluster and the network.
func launch(t *testing.T, seed int64, sc scenarioConfig) *harness {
	t.Helper()
	h := &harness{
		t: t, seed: seed, trace: &faultnet.Trace{},
		reps:     map[int]map[int]*gwts.Machine{},
		down:     map[[2]int]bool{},
		pers:     map[int]map[int]*wal.Persister{},
		walHooks: map[[2]int]*wal.Hooks{},
		obs:      &faultnet.RunObs{N: sc.replicas, F: sc.faulty},
	}
	maxDelay := sc.maxDelay
	if maxDelay == 0 {
		maxDelay = 3
	}
	hooks := &ServiceHooks{
		WrapReplica: func(shard, slot int, m proto.Machine) proto.Machine {
			inner := m
			if p, ok := m.(*wal.Persister); ok {
				// Durable slot: observe through the persister at the
				// wrapped gwts machine.
				if h.pers[shard] == nil {
					h.pers[shard] = map[int]*wal.Persister{}
				}
				h.pers[shard][slot] = p
				inner = p.Inner()
			}
			if r, ok := inner.(*gwts.Machine); ok {
				if h.reps[shard] == nil {
					h.reps[shard] = map[int]*gwts.Machine{}
				}
				h.reps[shard][slot] = r
			}
			if sc.adversary != nil {
				if adv := sc.adversary(h, shard, slot, m); adv != nil {
					delete(h.reps[shard], slot)
					return adv
				}
			}
			return nil
		},
	}
	cfg := ServiceConfig{
		Replicas: sc.replicas, Faulty: sc.faulty,
		MuteReplicas:    sc.mutes,
		Seed:            seed,
		CheckpointEvery: sc.ckptEvery,
		Obs:             sc.obs,
		Hooks:           hooks,
	}
	cfg.Obs.Clock = obs.ClockFunc(func() uint64 { return h.net.Now() })
	if sc.durable {
		h.mfs = sc.mfs
		if h.mfs == nil {
			h.mfs = wal.NewMemFS()
		}
		cfg.DataDir = "data"
		cfg.SyncMode = sc.syncMode
		hooks.Storage = &StorageHooks{FS: h.mfs, Hooks: h.storHook}
	}
	h.kc = cfg.keychain() // adversaries built inside newCluster may need it
	h.obs.Keychain = h.kc
	c, err := newCluster(ShardedConfig{Shards: sc.shards, ServiceConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	shards := c.cfg.Shards
	var machines []proto.Machine
	for s := 0; s < shards; s++ {
		h.gws = append(h.gws, rsm.NewGateway(rsm.GatewayConfig{
			Self: clientID, F: sc.faulty,
			Replicas: ident.Range(sc.replicas), SubmitTo: c.submitTo[s],
			MaxBatch: 1, MaxInFlight: 1, // one operation at a time
			StartSeq: c.startSeq,
		}))
		h.received = append(h.received, faultnet.Received{})
	}
	if shards == 1 {
		machines = append(machines, h.gws[0])
		for _, subs := range c.slots {
			machines = append(machines, subs[0])
		}
	} else {
		client := &shardMux{id: clientID, started: make([]bool, shards)}
		for _, gw := range h.gws {
			client.subs = append(client.subs, gw)
		}
		machines = append(machines, client)
		for i, subs := range c.slots {
			mx := &shardMux{id: ident.ProcessID(i), subs: subs, started: make([]bool, len(subs))}
			h.muxes = append(h.muxes, mx)
			machines = append(machines, mx)
		}
	}
	var sched *faultnet.Schedule
	if sc.sched != nil {
		sched = sc.sched(h) // reps exist by now
	}
	h.net = faultnet.New(machines, faultnet.Options{
		Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: maxDelay},
		Schedule: sched, Trace: h.trace, Transcode: h.record,
	})
	return h
}

// shardMux hosts one process's S shard machines on the net: it unwraps
// the shard envelope for the addressed sub-machine and wraps that
// machine's outputs back into it. Start starts the sub-machines not
// started yet, so a restart swaps one in and replaces the mux.
type shardMux struct {
	id      ident.ProcessID
	subs    []proto.Machine
	started []bool
}

func (x *shardMux) ID() ident.ProcessID { return x.id }

func (x *shardMux) Start() []proto.Output {
	var outs []proto.Output
	for s, sub := range x.subs {
		if !x.started[s] {
			x.started[s] = true
			outs = append(outs, envelope(s, sub.Start())...)
		}
	}
	return outs
}

func (x *shardMux) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	sm, ok := m.(msg.ShardMsg)
	if !ok || sm.Shard < 0 || sm.Shard >= len(x.subs) || sm.Inner == nil {
		return nil
	}
	return envelope(sm.Shard, x.subs[sm.Shard].Handle(from, sm.Inner))
}

// TakeEvents implements proto.EventSource over the sub-machines.
func (x *shardMux) TakeEvents() []proto.Event {
	var evs []proto.Event
	for _, sub := range x.subs {
		evs = append(evs, proto.DrainEvents(sub)...)
	}
	return evs
}

// envelope wraps shard s's outputs in the shard envelope.
func envelope(s int, outs []proto.Output) []proto.Output {
	for i, o := range outs {
		if o.Msg != nil {
			outs[i].Msg = msg.ShardMsg{Shard: s, Inner: o.Msg}
		}
	}
	return outs
}

// record is the net's Transcode hook: it notes every NewValue delivered
// to a live replica slot — Inclusivity's "received" — and passes the
// message on unchanged.
func (h *harness) record(from, to ident.ProcessID, m msg.Msg) msg.Msg {
	s, inner := 0, m
	if sm, ok := m.(msg.ShardMsg); ok {
		s, inner = sm.Shard, sm.Inner
	}
	if s >= 0 && s < len(h.received) && !h.down[[2]int{s, int(to)}] {
		h.received[s].Record(from, to, inner)
	}
	return m
}

// op hands one request to shard s's gateway, sends what the gateway
// launches, and runs the net until the request completes. It returns
// the completing report.
func (h *harness) op(s int, r rsm.Request) rsm.Report {
	h.t.Helper()
	gw, ref := h.gws[s], new(int)
	r.Ref = ref
	gw.Submit(r)
	outs := gw.Tick(h.net.Now())
	if len(h.gws) > 1 {
		outs = envelope(s, outs)
	}
	for _, o := range outs {
		h.net.Send(clientID, o.To, o.Msg)
	}
	var done *rsm.Report
	h.net.Run(faultnet.Limits{Until: func() bool {
		for _, rep := range gw.TakeReports() {
			if (rep.Kind == rsm.Decided || rep.Kind == rsm.Confirmed) && slices.Contains(rep.Refs, any(ref)) {
				done = &rep
			}
		}
		return done != nil
	}})
	if done == nil {
		h.t.Fatalf("seed %d: shard %d operation never completed; the net drained at t=%d", h.seed, s, h.net.Now())
	}
	return *done
}

// update submits one command, routed and made unique as Store.Update
// does, runs it to its decision and records it for the visibility
// check.
func (h *harness) update(body string) {
	h.t.Helper()
	h.updates++
	seq := h.c.startSeq + uint64(h.updates)
	cmd := rsm.UniqueCmd(clientID, int(seq), body)
	h.op(shard.Route(body, seq, len(h.gws)), rsm.Request{Cmd: cmd})
	h.obs.Submitted = append(h.obs.Submitted, cmd)
}

// read takes a confirmed read of every shard, in shard order, merges
// the nop-stripped views and records the result.
func (h *harness) read() []Item {
	h.t.Helper()
	views := make([]lattice.Set, len(h.gws))
	for s := range h.gws {
		views[s] = rsm.StripNops(h.op(s, rsm.Request{Read: true}).Value)
	}
	var items []Item
	lattice.EachMerged(views, func(it lattice.Item) bool {
		items = append(items, Item{Author: int(it.Author), Body: it.Body})
		return true
	})
	h.obs.AddRead(toLatticeItems(items))
	return items
}

// quiesce runs the network until nothing is left to deliver.
func (h *harness) quiesce() { h.net.Run(faultnet.Limits{}) }

// swap puts m in a slot through the net: at S = 1 the slot's machine
// is on the net itself, otherwise its process's mux starts m.
func (h *harness) swap(shard, slot int, m proto.Machine) {
	if h.muxes == nil {
		h.net.Replace(m)
		return
	}
	mx := h.muxes[slot]
	mx.subs[shard], mx.started[shard] = m, false
	h.net.Replace(mx)
}

// crash takes a slot down: a silent machine takes its place, like a
// wedged host. Schedule actions may call it mid-run.
func (h *harness) crash(shard, slot int) {
	h.down[[2]int{shard, slot}] = true
	h.swap(shard, slot, &muteMachine{id: ident.ProcessID(slot)})
}

// restart swaps a fresh replica into a crashed slot; the net sequences
// its Start outputs. The replica is built the way the stack builds
// every slot (newReplica): on a durable scenario it is rehydrated from
// its WAL + persisted checkpoint on the harness MemFS — the restart
// path a real process takes — otherwise it starts empty and must catch
// up via checkpoint state transfer. Returns the fresh machine; a
// durable slot's persister is h.pers[shard][slot].
func (h *harness) restart(shard, slot int) *gwts.Machine {
	h.t.Helper()
	fresh, p, err := newReplica(h.c.cfg, h.kc, shard, slot)
	if err != nil {
		h.t.Fatalf("seed %d: restart shard %d slot %d: %v", h.seed, shard, slot, err)
	}
	var m proto.Machine = fresh
	if p != nil {
		h.freshPers = append(h.freshPers, p)
		h.pers[shard][slot] = p
		m = p
	}
	h.reps[shard][slot] = fresh
	delete(h.down, [2]int{shard, slot})
	h.swap(shard, slot, m)
	return fresh
}

// finish quiesces, takes a final read, closes the durable logs,
// collects replica observations and returns the run observations.
func (h *harness) finish() *faultnet.RunObs {
	h.t.Helper()
	h.quiesce()
	h.read()
	h.quiesce()
	h.closeLogs()
	for shard, slots := range h.reps {
		for _, r := range slots {
			h.obs.AddReplica(shard, r.ID(), r.Decided(), r.Decisions(), h.received[shard].Of(r.ID()))
			if cert, ok := r.CheckpointCert(); ok {
				base := r.CheckpointBase()
				h.obs.Certs = append(h.obs.Certs, faultnet.CertObs{
					Shard: shard, Replica: r.ID(), Cert: cert,
					BaseDig: base.Digest(), BaseLen: base.Len(),
				})
			}
		}
	}
	return h.obs
}

// closeLogs closes the durable logs, the ones restart opened included.
func (h *harness) closeLogs() {
	for _, p := range append(h.c.pers, h.freshPers...) {
		_ = p.Close()
	}
}

// assertClean runs the invariant checker.
func (h *harness) assertClean() {
	h.t.Helper()
	if v := h.obs.Check(); len(v) != 0 {
		h.t.Fatalf("seed %d: invariant violations:\n  %s", h.seed, strings.Join(v, "\n  "))
	}
}

// fullStackScenario is one named scenario: a config plus a sequential
// workload. Scenarios must be deterministic — the suite replays each
// one and compares traces byte for byte.
type fullStackScenario struct {
	name string
	cfg  scenarioConfig
	// byzantine marks scenarios with an active (non-mute) adversary.
	byzantine bool
	workload  func(h *harness)
}

// mixedWorkload interleaves n sequential updates with periodic reads,
// draining the network after each operation.
func mixedWorkload(n int) func(h *harness) {
	return func(h *harness) {
		for k := 0; k < n; k++ {
			h.update(AddCmd(fmt.Sprintf("e-%02d", k)))
			h.quiesce()
			if k%4 == 3 {
				h.read()
				h.quiesce()
			}
		}
	}
}

// scenarios is the named suite. Three properties the acceptance bar
// demands: >= 10 scenarios, >= 3 with an active Byzantine replica,
// >= 1 crash-restart-via-state-transfer on the sharded Store.
var scenarios = []fullStackScenario{
	{
		name:     "quiet-baseline",
		cfg:      scenarioConfig{replicas: 4, faulty: 1},
		workload: mixedWorkload(10),
	},
	{
		name: "reorder-jitter",
		cfg: scenarioConfig{replicas: 4, faulty: 1, maxDelay: 4,
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewReorder(0, 0, 6),
				}}
			}},
		workload: mixedWorkload(10),
	},
	{
		name: "at-least-once-links",
		cfg: scenarioConfig{replicas: 4, faulty: 1,
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewDup(0, 0, 1), // duplicate everything
				}}
			}},
		workload: mixedWorkload(8),
	},
	{
		name: "partition-minority-heals",
		cfg: scenarioConfig{replicas: 4, faulty: 1,
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewPartition(0, 2500, 3),
				}}
			}},
		workload: func(h *harness) {
			// No quiesce during the partition (draining would fast-forward
			// virtual time past the heal): each update runs only until it
			// completes. n-f=3 replicas decide alone.
			for k := 0; k < 8; k++ {
				h.update(AddCmd(fmt.Sprintf("part-%02d", k)))
			}
			h.quiesce() // heal: p3 absorbs its backlog
			h.read()
			h.quiesce()
		},
	},
	{
		name: "lagging-replica",
		cfg: scenarioConfig{replicas: 4, faulty: 1,
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewLag(0, 0, 2, 12),
				}}
			}},
		workload: mixedWorkload(8),
	},
	{
		name: "mute-plus-reorder",
		cfg: scenarioConfig{replicas: 4, faulty: 1, mutes: []int{3},
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewReorder(0, 0, 5),
				}}
			}},
		workload: mixedWorkload(8),
	},
	{
		name: "crash-restart-state-transfer",
		cfg:  scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 16},
		workload: func(h *harness) {
			for k := 0; k < 20; k++ {
				h.update(AddCmd(fmt.Sprintf("pre-%02d", k)))
			}
			h.quiesce()
			h.crash(0, 3)
			for k := 0; k < 20; k++ {
				h.update(AddCmd(fmt.Sprintf("down-%02d", k)))
			}
			h.quiesce()
			fresh := h.restart(0, 3)
			for k := 0; k < 24; k++ {
				h.update(AddCmd(fmt.Sprintf("post-%02d", k)))
			}
			h.quiesce()
			st := fresh.CompactionStats()
			if st.TransfersReceived < 1 {
				h.t.Fatalf("seed %d: restarted replica never used state transfer: %+v", h.seed, st)
			}
			if st.BaseLen < 20 {
				h.t.Fatalf("seed %d: restarted replica's base (%d) does not cover its missed history", h.seed, st.BaseLen)
			}
		},
	},
	{
		name:      "byz-equivocating-disclosure",
		byzantine: true,
		cfg: scenarioConfig{replicas: 4, faulty: 1,
			adversary: func(h *harness, shard, slot int, m proto.Machine) proto.Machine {
				if slot != 3 {
					return nil
				}
				return &byz.Equivocator{
					Self: 3, Tag: "gwts/disc/0",
					SideA: []ident.ProcessID{0}, SideB: []ident.ProcessID{1, 2},
					ValA: lattice.FromStrings(3, "split-a"),
					ValB: lattice.FromStrings(3, "split-b"),
				}
			}},
		workload: mixedWorkload(8),
	},
	{
		name:      "byz-ckpt-forger",
		byzantine: true,
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 12,
			adversary: func(h *harness, shard, slot int, m proto.Machine) proto.Machine {
				if slot != 3 {
					return nil
				}
				return &byz.CkptForger{Self: 3, N: 4, F: 1, Keychain: h.kc}
			}},
		workload: func(h *harness) {
			mixedWorkload(24)(h)
			for _, r := range h.reps[0] {
				if r.CompactionStats().Installs == 0 {
					h.t.Fatalf("seed %d: replica %v never compacted under forger attack", h.seed, r.ID())
				}
			}
		},
	},
	{
		name:      "byz-sig-replayer",
		byzantine: true,
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 12,
			adversary: func(h *harness, shard, slot int, m proto.Machine) proto.Machine {
				if slot != 3 {
					return nil
				}
				return &byz.SigReplayer{Self: 3}
			}},
		workload: mixedWorkload(24),
	},
	{
		name:      "store-byz-shard-slots",
		byzantine: true,
		cfg: scenarioConfig{shards: 2, replicas: 4, faulty: 1,
			adversary: func(h *harness, shard, slot int, m proto.Machine) proto.Machine {
				// A different active adversary in each shard, on
				// different processes: every shard still has n-f=3
				// correct members.
				if shard == 0 && slot == 3 {
					return &byz.NackSpammer{Self: 3}
				}
				if shard == 1 && slot == 1 {
					return &byz.AckAll{Self: 1}
				}
				return nil
			}},
		workload: func(h *harness) {
			for k := 0; k < 10; k++ {
				h.update(PutCmd(fmt.Sprintf("key-%d", k%4), uint64(k+1), fmt.Sprintf("v%d", k)))
				h.quiesce()
				if k%3 == 2 {
					h.read() // cross-shard Scan
					h.quiesce()
				}
			}
		},
	},
	{
		// One mute replica per shard (different processes) plus two
		// windows cutting correct replica 1: each shard is then left with
		// 2 of the 3 correct replicas it needs, so the updates landing in
		// a window stall in virtual time until its heal.
		name: "store-mute-partition-windows",
		cfg: scenarioConfig{shards: 2, replicas: 4, faulty: 1,
			adversary: func(h *harness, shard, slot int, m proto.Machine) proto.Machine {
				if (shard == 0 && slot == 3) || (shard == 1 && slot == 2) {
					return &byz.Mute{Self: ident.ProcessID(slot)}
				}
				return nil
			},
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewPartition(300, 2500, 1),
					faultnet.NewPartition(2600, 6000, 1),
				}}
			}},
		workload: func(h *harness) {
			put := func() {
				h.update(PutCmd(fmt.Sprintf("win-%02d", (h.updates+1)%8), uint64(h.updates+1), "v"))
				h.quiesce()
			}
			for h.net.Now() < 6000 {
				put()
			}
			for k := 0; k < 12; k++ {
				put()
			}
		},
	},
	{
		name: "store-crash-restart-state-transfer",
		cfg:  scenarioConfig{shards: 2, replicas: 4, faulty: 1, ckptEvery: 16},
		workload: func(h *harness) {
			spread := func(tag string, n int) {
				for k := 0; k < n; k++ {
					h.update(PutCmd(fmt.Sprintf("key-%d", k%8), uint64(h.updates+1), tag))
				}
			}
			spread("pre", 24)
			h.quiesce()
			// Whole-process crash: p3 goes down in every shard.
			h.crash(0, 3)
			h.crash(1, 3)
			spread("down", 24)
			h.quiesce()
			fresh0 := h.restart(0, 3)
			fresh1 := h.restart(1, 3)
			h.quiesce()
			spread("post", 32)
			h.quiesce()
			for s, fresh := range map[int]*gwts.Machine{0: fresh0, 1: fresh1} {
				st := fresh.CompactionStats()
				if st.TransfersReceived < 1 {
					h.t.Fatalf("seed %d: shard %d restarted replica never used state transfer: %+v", h.seed, s, st)
				}
			}
		},
	},
	{
		// The durability acceptance bar: a 4-replica cluster is fully
		// killed by a power loss with no surviving peer; every replica
		// restarts from its local WAL + persisted checkpoint alone and
		// the cluster serves a confirmed read of everything it had
		// decided — with zero peer state transfer, since every disk is
		// intact (record-level fsync ⇒ power loss drops nothing).
		name: "wal-cold-restart-no-peer",
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 12,
			durable: true, syncMode: "record"},
		workload: func(h *harness) {
			const n = 20
			for k := 0; k < n; k++ {
				h.update(AddCmd(fmt.Sprintf("cold-%02d", k)))
			}
			h.quiesce()
			for slot := 0; slot < 4; slot++ {
				h.crash(0, slot)
			}
			h.mfs.Crash("", true) // whole-machine power loss
			for slot := 0; slot < 4; slot++ {
				h.restart(0, slot)
			}
			h.quiesce()
			for slot := 0; slot < 4; slot++ {
				rec := h.pers[0][slot].Recovered()
				if rec == nil || rec.Decided().Len() < n {
					h.t.Fatalf("seed %d: slot %d recovered %v items from disk, want >= %d",
						h.seed, slot, rec.Decided().Len(), n)
				}
			}
			items := h.read() // confirmed read, served by the reborn cluster
			if got := len(SetView(items)); got != n {
				h.t.Fatalf("seed %d: post-restart read has %d items, want %d", h.seed, got, n)
			}
			h.quiesce()
			for slot := 0; slot < 4; slot++ {
				cs := h.reps[0][slot].CompactionStats()
				if cs.TransfersRequested != 0 || cs.TransfersReceived != 0 {
					h.t.Fatalf("seed %d: slot %d restarted from intact disk but used state transfer: %+v",
						h.seed, slot, cs)
				}
			}
			h.update(AddCmd("cold-after")) // the reborn cluster keeps deciding
			h.quiesce()
		},
	},
	{
		// Satellite guarantee: a replica restarting over an intact disk
		// consults local storage first and never asks a peer — zero
		// state_req round-trips.
		name: "wal-intact-restart-zero-transfer",
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 16,
			durable: true, syncMode: "record"},
		workload: func(h *harness) {
			for k := 0; k < 16; k++ {
				h.update(AddCmd(fmt.Sprintf("zt-%02d", k)))
			}
			h.quiesce()
			// Process crash, not power loss: the disk keeps everything.
			h.crash(0, 3)
			h.mfs.Crash(wal.ReplicaDir("data", 0, 3), false)
			fresh := h.restart(0, 3)
			h.quiesce()
			rec := h.pers[0][3].Recovered()
			if rec == nil || rec.Decided().Len() < 16 || !rec.HasCkpt {
				h.t.Fatalf("seed %d: restart did not recover local state (ckpt=%v)", h.seed, rec != nil && rec.HasCkpt)
			}
			for k := 0; k < 6; k++ {
				h.update(AddCmd(fmt.Sprintf("zt-post-%02d", k)))
			}
			h.quiesce()
			if cs := fresh.CompactionStats(); cs.TransfersRequested != 0 || cs.TransfersReceived != 0 {
				h.t.Fatalf("seed %d: intact-disk restart used peer state transfer: %+v", h.seed, cs)
			}
		},
	},
	{
		// A torn write at the tail of replica 3's WAL (crash mid-append,
		// injected at the record boundary via the storage hook seam):
		// recovery detects the damage by CRC, discards from the tear on,
		// and the lost tail heals through checkpoint-driven state
		// transfer — local disk first, peers only for the gap.
		name: "wal-torn-tail",
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 8,
			durable: true, syncMode: "record"},
		workload: func(h *harness) {
			for k := 0; k < 10; k++ {
				h.update(AddCmd(fmt.Sprintf("tt-%02d", k)))
			}
			h.quiesce()
			torn := false
			h.storHook(0, 3).SetWriteRecord(func(kind string, frame []byte) []byte {
				if torn || kind != "dec" {
					return frame
				}
				torn = true
				return frame[:len(frame)/2]
			})
			h.update(AddCmd("tt-torn")) // replica 3 persists this one half-written
			h.quiesce()
			h.storHook(0, 3).SetWriteRecord(nil)
			if !torn {
				h.t.Fatalf("seed %d: torn-write hook never fired", h.seed)
			}
			h.crash(0, 3)
			h.mfs.Crash(wal.ReplicaDir("data", 0, 3), true)
			for k := 0; k < 6; k++ {
				h.update(AddCmd(fmt.Sprintf("tt-down-%02d", k)))
			}
			h.quiesce()
			fresh := h.restart(0, 3)
			h.quiesce()
			rec := h.pers[0][3].Recovered()
			if rec == nil || !rec.TornTail {
				h.t.Fatalf("seed %d: recovery did not flag the torn tail: %+v", h.seed, rec)
			}
			// Keep deciding past the next checkpoint: its base digest is
			// unresolvable from replica 3's truncated local state, so the
			// tail arrives by state transfer.
			for k := 0; k < 10; k++ {
				h.update(AddCmd(fmt.Sprintf("tt-post-%02d", k)))
			}
			h.quiesce()
			cs := fresh.CompactionStats()
			if cs.TransfersReceived < 1 {
				h.t.Fatalf("seed %d: torn tail never healed via state transfer: %+v", h.seed, cs)
			}
			if fresh.Decided().Len() < 24 {
				h.t.Fatalf("seed %d: healed replica decided only %d items", h.seed, fresh.Decided().Len())
			}
		},
	},
	{
		// Cold restart of the sharded Store: both shards' replicas all
		// die in one power loss and restart from their per-shard
		// per-replica data directories.
		name: "store-wal-cold-restart",
		cfg: scenarioConfig{shards: 2, replicas: 4, faulty: 1, ckptEvery: 12,
			durable: true, syncMode: "record"},
		workload: func(h *harness) {
			const n = 16
			for k := 0; k < n; k++ {
				h.update(AddCmd(fmt.Sprintf("sk-%02d", k)))
			}
			h.quiesce()
			for s := 0; s < 2; s++ {
				for slot := 0; slot < 4; slot++ {
					h.crash(s, slot)
				}
			}
			h.mfs.Crash("", true)
			for s := 0; s < 2; s++ {
				for slot := 0; slot < 4; slot++ {
					h.restart(s, slot)
				}
			}
			h.quiesce()
			items := h.read() // cross-shard Scan over the reborn store
			if got := len(SetView(items)); got != n {
				h.t.Fatalf("seed %d: post-restart Scan has %d items, want %d", h.seed, got, n)
			}
			h.quiesce()
			h.update(AddCmd("sk-after"))
			h.quiesce()
		},
	},
	{
		name: "kitchen-sink",
		cfg: scenarioConfig{shards: 2, replicas: 4, faulty: 1, mutes: []int{2},
			sched: func(h *harness) *faultnet.Schedule {
				return &faultnet.Schedule{Ops: []faultnet.Op{
					faultnet.NewReorder(0, 0, 4),
					faultnet.NewDup(0, 0, 3),
					faultnet.NewLag(0, 0, 1, 8),
				}}
			}},
		workload: func(h *harness) {
			for k := 0; k < 8; k++ {
				h.update(AddCmd(fmt.Sprintf("sink-%02d", k)))
				h.quiesce()
			}
			h.read()
			h.quiesce()
		},
	},
}

// runScenario executes one scenario once and returns its observations
// and trace.
func runScenario(t *testing.T, sc fullStackScenario, seed int64) (*faultnet.RunObs, *faultnet.Trace) {
	t.Helper()
	h := launch(t, seed, sc.cfg)
	sc.workload(h)
	obs := h.finish()
	return obs, h.trace
}

// TestFaultnetScenarios runs every named scenario twice with the same
// seed: invariants must hold on both runs and the two event traces
// must be byte-identical (deterministic replay). -seed overrides the
// scenario seed for replay.
func TestFaultnetScenarios(t *testing.T) {
	if len(scenarios) < 10 {
		t.Fatalf("scenario suite shrank to %d entries, want >= 10", len(scenarios))
	}
	activeByz := 0
	for _, sc := range scenarios {
		if sc.byzantine {
			activeByz++
		}
	}
	if activeByz < 3 {
		t.Fatalf("only %d active-Byzantine scenarios, want >= 3", activeByz)
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			seed := int64(1)
			if *seedFlag != 0 {
				seed = *seedFlag
			}
			obsA, traceA := runScenario(t, sc, seed)
			if v := obsA.Check(); len(v) != 0 {
				t.Fatalf("seed %d: invariant violations:\n  %s\nreplay: go test -run 'TestFaultnetScenarios/%s' -seed=%d",
					seed, strings.Join(v, "\n  "), sc.name, seed)
			}
			obsB, traceB := runScenario(t, sc, seed)
			if v := obsB.Check(); len(v) != 0 {
				t.Fatalf("seed %d (replay): %s", seed, strings.Join(v, "; "))
			}
			if d := faultnet.Diff(traceA, traceB); d != "" {
				t.Fatalf("seed %d: replay diverged (%d vs %d deliveries): %s",
					seed, traceA.Lines(), traceB.Lines(), d)
			}
			if traceA.Lines() == 0 {
				t.Fatal("empty trace")
			}
			t.Logf("%s: %d deliveries, trace %s, seed %d", sc.name, traceA.Lines(), traceA.Fingerprint(), seed)
		})
	}
}

// TestServiceIsOneShardStore: a Service is a Store with one shard.
// NewService and NewStore{Shards: 1} must both put the gateway and the
// bare replicas on the transport (no shard.Demux). Then one seeded
// workload — a mute replica, checkpoints, a durable MemFS and confirmed
// reads — runs on the closed-world harness over the cluster built from
// a Service's config (Shards 0) and from a one-shard Store's: the two
// must produce byte-identical delivery and consensus traces.
func TestServiceIsOneShardStore(t *testing.T) {
	seed := int64(3)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	bare := func(machines []proto.Machine, _ TransportOptions) Transport {
		if len(machines) != 5 {
			t.Errorf("transport got %d machines, want gateway + 4 replicas", len(machines))
		}
		for _, m := range machines {
			if _, ok := m.(*shard.Demux); ok {
				t.Errorf("S = 1 put a shard.Demux on the transport (replica %v)", m.ID())
			}
		}
		return chanet.New(machines, chanet.Options{})
	}
	cfg := ServiceConfig{Replicas: 4, Faulty: 1, MuteReplicas: []int{3}, Hooks: &ServiceHooks{NewTransport: bare}}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	st, err := NewStore(ShardedConfig{Shards: 1, ServiceConfig: cfg})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	run := func(shards int) (*faultnet.Trace, *obs.Tracer) {
		cons := &obs.Tracer{}
		h := launch(t, seed, scenarioConfig{
			shards: shards, replicas: 4, faulty: 1, mutes: []int{3},
			ckptEvery: 8, durable: true, syncMode: "record",
			obs: ObsConfig{ConsensusTrace: cons},
		})
		for k := 0; k < 24; k++ {
			h.update(AddCmd(fmt.Sprintf("one-%02d", k)))
			h.quiesce()
			if k%4 == 3 {
				h.read()
				h.quiesce()
			}
		}
		h.finish()
		h.assertClean()
		return h.trace, cons
	}
	svcTrace, svcCons := run(0)
	stTrace, stCons := run(1)
	if d := faultnet.Diff(svcTrace, stTrace); d != "" {
		t.Fatalf("seed %d: Service and one-shard Store delivery traces differ: %s", seed, d)
	}
	if !bytes.Equal(svcCons.Bytes(), stCons.Bytes()) {
		t.Fatalf("seed %d: Service and one-shard Store consensus traces differ", seed)
	}
	for _, ev := range []string{string(obs.EvCkptInstall), string(obs.EvWalSync)} {
		if !bytes.Contains(svcCons.Bytes(), []byte(ev)) {
			t.Fatalf("seed %d: workload never produced a %s event", seed, ev)
		}
	}
	t.Logf("%d deliveries, trace %s, %d consensus events", svcTrace.Lines(), svcTrace.Fingerprint(), svcCons.Len())
}

// explorerHorizon is the virtual-time span the explorer draws fault
// windows from. Its six updates and final read span about 150 ticks
// without faults, so windows drawn over this span mostly overlap the
// traffic they are meant to disturb.
const explorerHorizon = 200

// explorerRun executes the explorer's generic scenario (a small
// unsharded cluster under a randomized schedule) and returns the
// violations and the trace. sabotage injects a deliberate observation
// corruption (tests only).
func explorerRun(t *testing.T, seed int64, mask uint64, sabotage func(*faultnet.Schedule) func(*faultnet.RunObs)) ([]string, *faultnet.Trace) {
	sc := scenarioConfig{replicas: 4, faulty: 1, maxDelay: 3}
	var sched *faultnet.Schedule
	sc.sched = func(h *harness) *faultnet.Schedule {
		sched = faultnet.Random(seed, faultnet.RandParams{
			Procs: ident.Range(4), Horizon: explorerHorizon, MaxOps: 5,
		}).Mask(mask)
		return sched
	}
	h := launch(t, seed, sc)
	for k := 0; k < 6; k++ {
		h.update(AddCmd(fmt.Sprintf("x-%02d", k)))
	}
	obs := h.finish()
	if sabotage != nil {
		obs.Sabotage = sabotage(sched)
	}
	return obs.Check(), h.trace
}

// reproLine prints the exact command replaying a failing schedule.
func reproLine(seed int64, mask uint64) string {
	return fmt.Sprintf("go test -run 'TestFaultnetExplorer$' -seed=%d -faultnet.ops=%d .", seed, mask)
}

// TestFaultnetExplorer sweeps N seeded random fault schedules over the
// full stack and checks every invariant on each run; each seed runs
// twice and the two traces must be byte-identical. On a violation it
// shrinks the schedule to a minimal failing op subset and prints the
// exact replay command. -seed pins a single seed; -faultnet.ops
// replays a shrunk mask.
func TestFaultnetExplorer(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	if *seedFlag != 0 {
		seeds = []int64{*seedFlag}
	}
	for _, seed := range seeds {
		sched := faultnet.Random(seed, faultnet.RandParams{Procs: ident.Range(4), Horizon: explorerHorizon, MaxOps: 5})
		v, trace := explorerRun(t, seed, *opsFlag, nil)
		if len(v) != 0 {
			mask := faultnet.Shrink(len(sched.Ops), func(m uint64) bool {
				v, _ := explorerRun(t, seed, m, nil)
				return len(v) != 0
			})
			t.Fatalf("seed %d: invariant violations under %s:\n  %s\nminimal schedule: %s\nreplay: %s",
				seed, sched.Mask(*opsFlag), strings.Join(v, "\n  "),
				sched.Mask(mask), reproLine(seed, mask))
		}
		if _, again := explorerRun(t, seed, *opsFlag, nil); faultnet.Diff(trace, again) != "" {
			t.Fatalf("seed %d: replay diverged: %s\nreplay: %s", seed, faultnet.Diff(trace, again), reproLine(seed, *opsFlag))
		}
		t.Logf("seed %d clean: %d deliveries, trace %s, %s", seed, trace.Lines(), trace.Fingerprint(), sched)
	}
}

// TestFaultnetExplorerCatchesSabotage proves the catch-and-shrink
// path end to end: a test-only sabotage hook corrupts the read
// observations whenever the schedule contains a Dup op; the explorer
// must catch the violation, shrink the schedule to just the Dup ops,
// and produce a replayable seed + mask.
func TestFaultnetExplorerCatchesSabotage(t *testing.T) {
	sabotage := func(sched *faultnet.Schedule) func(*faultnet.RunObs) {
		hasDup := false
		for _, op := range sched.Ops {
			if _, ok := op.(faultnet.Dup); ok {
				hasDup = true
			}
		}
		if !hasDup {
			return nil
		}
		return func(o *faultnet.RunObs) {
			// Fabricate a read that shrank: a total-order violation.
			o.Reads = append(o.Reads, lattice.FromStrings(9, "phantom"))
		}
	}
	fails := func(seed int64, mask uint64) bool {
		v, _ := explorerRun(t, seed, mask, sabotage)
		return len(v) != 0
	}
	// Find a seed whose random schedule contains a Dup op.
	var seed int64 = -1
	var sched *faultnet.Schedule
	for s := int64(1); s < 40; s++ {
		cand := faultnet.Random(s, faultnet.RandParams{Procs: ident.Range(4), Horizon: explorerHorizon, MaxOps: 5})
		hasDup, n := false, 0
		for _, op := range cand.Ops {
			if _, ok := op.(faultnet.Dup); ok {
				hasDup = true
			} else {
				n++
			}
		}
		if hasDup && n > 0 { // needs something to shrink away
			seed, sched = s, cand
			break
		}
	}
	if seed < 0 {
		t.Fatal("no candidate seed with a mixed schedule found")
	}
	if !fails(seed, ^uint64(0)) {
		t.Fatalf("sabotaged run did not fail (seed %d, %s)", seed, sched)
	}
	mask := faultnet.Shrink(len(sched.Ops), func(m uint64) bool { return fails(seed, m) })
	min := sched.Mask(mask)
	if len(min.Ops) >= len(sched.Ops) {
		t.Fatalf("shrink removed nothing: %s -> %s", sched, min)
	}
	for _, op := range min.Ops {
		if _, ok := op.(faultnet.Dup); !ok {
			t.Fatalf("minimal schedule kept a failure-irrelevant op: %s", min)
		}
	}
	// The printed repro must actually replay the failure.
	if !fails(seed, mask) {
		t.Fatalf("repro does not reproduce: %s", reproLine(seed, mask))
	}
	t.Logf("sabotage caught and shrunk: %s -> %s; repro: %s", sched, min, reproLine(seed, mask))
}

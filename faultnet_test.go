package bgla

// The deterministic full-stack fault-injection scenario suite: the
// public Service and Store run unmodified on the internal/faultnet
// harness via the ServiceHooks seam, under scripted fault schedules —
// reordering, duplication, healing partitions, lag, crash-restart with
// checkpoint state transfer — and with *active* Byzantine replicas
// (internal/byz) lifted into full-stack replica slots. Every scenario
// is replayed twice and must produce byte-identical event traces
// (same seed ⇒ same run), and a post-run invariant checker validates
// the paper's guarantees: total order of confirmed reads and Scans,
// comparability + inclusivity of decided values per shard, update
// visibility, and checkpoint-chain digest validity. DESIGN.md §7
// documents the architecture.
//
// Replay: every randomized entry point takes -seed (and the explorer
// additionally -faultnet.ops to replay a shrunk schedule mask).

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"bgla/internal/byz"
	"bgla/internal/compact"
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

// harness wires one Service or Store onto the deterministic network
// and accumulates run observations for the invariant checker.
type harness struct {
	t    *testing.T
	seed int64

	svc   *Service
	store *Store
	net   *faultnet.Net
	trace *faultnet.Trace
	obs   *faultnet.RunObs
	kc    sig.Keychain

	// reps[shard][slot] is the gwts machine currently serving that
	// slot (updated on restart); wrappers[shard][slot] its Restartable.
	reps     map[int]map[int]*gwts.Machine
	wrappers map[int]map[int]*compact.Restartable

	// Durable-storage state (scenarios with cfg.durable): the shared
	// deterministic filesystem, per-slot fault hooks, the persister
	// currently serving each slot, and the persisters swapped in by
	// restart (closed at finish — Service.Close only knows the
	// originals).
	mfs       *wal.MemFS
	walHooks  map[[2]int]*wal.Hooks
	pers      map[int]map[int]*wal.Persister
	freshPers []*wal.Persister

	updates int // mirrors the Service/Store sequence counter
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
	shards    int // 0/1 = unsharded Service
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
	// restartable lists (shard, slot) pairs to wrap for crash-restart.
	restartable [][2]int
	mutes       []int
	// durable runs every replica on the WAL storage engine over a
	// deterministic in-memory filesystem (wal.MemFS); restartable slots
	// then restart *from disk* (see restart). syncMode is the
	// fsync policy ("" = group commit).
	durable  bool
	syncMode string
}

// launch builds the stack on the harness network.
func launch(t *testing.T, seed int64, sc scenarioConfig) *harness {
	t.Helper()
	h := &harness{
		t: t, seed: seed, trace: &faultnet.Trace{},
		reps:     map[int]map[int]*gwts.Machine{},
		wrappers: map[int]map[int]*compact.Restartable{},
		pers:     map[int]map[int]*wal.Persister{},
		walHooks: map[[2]int]*wal.Hooks{},
		obs:      &faultnet.RunObs{N: sc.replicas, F: sc.faulty},
	}
	if sc.durable {
		h.mfs = wal.NewMemFS()
	}
	if sc.ckptEvery > 0 {
		h.kc = sig.NewSim(sc.replicas, seed+0x5eed)
		h.obs.Keychain = h.kc
	}
	maxDelay := sc.maxDelay
	if maxDelay == 0 {
		maxDelay = 3
	}
	hooks := &ServiceHooks{
		NewTransport: func(machines []proto.Machine, opts TransportOptions) Transport {
			var sched *faultnet.Schedule
			if sc.sched != nil {
				sched = sc.sched(h) // wrappers/reps exist by now
			}
			h.net = faultnet.New(machines, faultnet.Options{
				Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: maxDelay},
				Schedule: sched, Trace: h.trace,
			})
			return h.net
		},
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
			for _, rs := range sc.restartable {
				if rs[0] == shard && rs[1] == slot {
					w := compact.NewRestartable(m)
					if h.wrappers[shard] == nil {
						h.wrappers[shard] = map[int]*compact.Restartable{}
					}
					h.wrappers[shard][slot] = w
					return w
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
		Hooks:           hooks,
	}
	if sc.durable {
		cfg.DataDir = "data"
		cfg.SyncMode = sc.syncMode
		hooks.Storage = &StorageHooks{FS: h.mfs, Hooks: h.storHook}
	}
	if sc.shards > 1 {
		st, err := NewStore(ShardedConfig{Shards: sc.shards, ServiceConfig: cfg})
		if err != nil {
			t.Fatal(err)
		}
		h.store = st
	} else {
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.svc = svc
	}
	return h
}

// update submits one command sequentially and records it for the
// visibility check (mirroring the stack's sequence counter).
func (h *harness) update(body string) {
	h.t.Helper()
	var err error
	if h.store != nil {
		err = h.store.Update(body)
	} else {
		err = h.svc.Update(body)
	}
	if err != nil {
		h.t.Fatalf("seed %d: update %q: %v", h.seed, body, err)
	}
	h.updates++
	h.obs.Submitted = append(h.obs.Submitted, rsm.UniqueCmd(clientID, h.updates, body))
}

// read takes a confirmed read (Scan on a Store) and records it.
func (h *harness) read() []Item {
	h.t.Helper()
	var items []Item
	var err error
	if h.store != nil {
		items, err = h.store.Scan()
	} else {
		items, err = h.svc.Read()
	}
	if err != nil {
		h.t.Fatalf("seed %d: read: %v", h.seed, err)
	}
	h.obs.AddRead(toLatticeItems(items))
	return items
}

// quiesce drains the network (a deterministic cut point).
func (h *harness) quiesce() { h.net.Quiesce() }

// restart swaps a fresh replica into a crashed slot and kicks it. The
// replica is built the way the stack builds every slot (newReplica):
// on a durable scenario it is rehydrated from its WAL + persisted
// checkpoint on the harness MemFS — the restart path a real process
// takes — otherwise it starts empty and must catch up via checkpoint
// state transfer. Call only at a quiesced point (the swap is then a
// deterministic event). Returns the fresh machine; a durable slot's
// persister is h.pers[shard][slot].
func (h *harness) restart(shard, slot int) *gwts.Machine {
	h.t.Helper()
	cfg := h.cluster().cfg
	fresh, p, err := newReplica(cfg, h.kc, shard, slot)
	if err != nil {
		h.t.Fatalf("seed %d: restart shard %d slot %d: %v", h.seed, shard, slot, err)
	}
	if p != nil {
		h.freshPers = append(h.freshPers, p)
		h.pers[shard][slot] = p
		h.wrappers[shard][slot].Swap(p)
	} else {
		h.wrappers[shard][slot].Swap(fresh)
	}
	h.reps[shard][slot] = fresh
	kick := msg.Msg(msg.Wakeup{Tag: "rejoin"})
	if cfg.Shards > 1 {
		kick = msg.ShardMsg{Shard: shard, Inner: kick}
	}
	h.net.Inject(clientID, ident.ProcessID(slot), kick)
	return fresh
}

// cluster is the Store under test (a Service's one-shard Store).
func (h *harness) cluster() *Store {
	if h.store != nil {
		return h.store
	}
	return h.svc.st
}

// finish quiesces, takes a final read, collects replica observations,
// shuts the stack down, and returns the run observations.
func (h *harness) finish() *faultnet.RunObs {
	h.t.Helper()
	h.quiesce()
	h.read()
	h.quiesce()
	if h.store != nil {
		h.store.Close()
	} else {
		h.svc.Close()
	}
	// Close() only knows the launch-time persisters; close the ones
	// swapped in by restart ourselves.
	for _, p := range h.freshPers {
		_ = p.Close()
	}
	// The transport has stopped: machine state is stable now.
	for shard, slots := range h.reps {
		for _, r := range slots {
			h.obs.AddReplica(shard, r.ID(), r.Decided(), r.Decisions(), r.Inputs())
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
// quiescing between operations to pin the admission points.
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
			// virtual time past the heal); HoldLulls pins the heal jump
			// behind the sequential ops. n-f=3 replicas decide alone.
			h.net.HoldLulls(true)
			for k := 0; k < 8; k++ {
				h.update(AddCmd(fmt.Sprintf("part-%02d", k)))
			}
			h.net.HoldLulls(false)
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
		cfg: scenarioConfig{replicas: 4, faulty: 1, ckptEvery: 16,
			restartable: [][2]int{{0, 3}}},
		workload: func(h *harness) {
			for k := 0; k < 20; k++ {
				h.update(AddCmd(fmt.Sprintf("pre-%02d", k)))
			}
			h.quiesce()
			h.wrappers[0][3].Crash()
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
		cfg: scenarioConfig{shards: 2, replicas: 4, faulty: 1, ckptEvery: 16,
			restartable: [][2]int{{0, 3}, {1, 3}}},
		workload: func(h *harness) {
			spread := func(tag string, n int) {
				for k := 0; k < n; k++ {
					h.update(PutCmd(fmt.Sprintf("key-%d", k%8), uint64(h.updates+1), tag))
				}
			}
			spread("pre", 24)
			h.quiesce()
			// Whole-process crash: p3 goes down in every shard.
			h.wrappers[0][3].Crash()
			h.wrappers[1][3].Crash()
			spread("down", 24)
			h.quiesce()
			var fresh0, fresh1 *gwts.Machine
			h.net.Atomically(func() {
				fresh0 = h.restart(0, 3)
				fresh1 = h.restart(1, 3)
			})
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
			durable: true, syncMode: "record",
			restartable: [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}}},
		workload: func(h *harness) {
			const n = 20
			for k := 0; k < n; k++ {
				h.update(AddCmd(fmt.Sprintf("cold-%02d", k)))
			}
			h.quiesce()
			for slot := 0; slot < 4; slot++ {
				h.wrappers[0][slot].Crash()
			}
			h.mfs.Crash("", true) // whole-machine power loss
			h.net.Atomically(func() {
				for slot := 0; slot < 4; slot++ {
					h.restart(0, slot)
				}
			})
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
			durable: true, syncMode: "record", restartable: [][2]int{{0, 3}}},
		workload: func(h *harness) {
			for k := 0; k < 16; k++ {
				h.update(AddCmd(fmt.Sprintf("zt-%02d", k)))
			}
			h.quiesce()
			// Process crash, not power loss: the disk keeps everything.
			h.wrappers[0][3].Crash()
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
			durable: true, syncMode: "record", restartable: [][2]int{{0, 3}}},
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
			h.wrappers[0][3].Crash()
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
			durable: true, syncMode: "record",
			restartable: [][2]int{
				{0, 0}, {0, 1}, {0, 2}, {0, 3},
				{1, 0}, {1, 1}, {1, 2}, {1, 3},
			}},
		workload: func(h *harness) {
			const n = 16
			for k := 0; k < n; k++ {
				h.update(AddCmd(fmt.Sprintf("sk-%02d", k)))
			}
			h.quiesce()
			for s := 0; s < 2; s++ {
				for slot := 0; slot < 4; slot++ {
					h.wrappers[s][slot].Crash()
				}
			}
			h.mfs.Crash("", true)
			h.net.Atomically(func() {
				for s := 0; s < 2; s++ {
					for slot := 0; slot < 4; slot++ {
						h.restart(s, slot)
					}
				}
			})
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
// One seeded workload — a mute replica, checkpoints, a durable MemFS
// and confirmed reads — runs through NewService and through
// NewStore{Shards: 1}: both must put the bare replicas on the
// transport (no shard.Demux) and produce byte-identical delivery and
// consensus traces.
func TestServiceIsOneShardStore(t *testing.T) {
	seed := int64(3)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	run := func(viaStore bool) (*faultnet.Trace, *obs.Tracer) {
		trace, cons := &faultnet.Trace{}, &obs.Tracer{}
		var net *faultnet.Net
		cfg := ServiceConfig{
			Replicas: 4, Faulty: 1, MuteReplicas: []int{3}, Seed: seed,
			CheckpointEvery: 8, DataDir: "data", SyncMode: "record",
			Obs: ObsConfig{
				ConsensusTrace: cons,
				Clock:          obs.ClockFunc(func() uint64 { return net.Now() }),
			},
			Hooks: &ServiceHooks{
				NewTransport: func(machines []proto.Machine, _ TransportOptions) Transport {
					if len(machines) != 5 {
						t.Errorf("transport got %d machines, want gateway + 4 replicas", len(machines))
					}
					for _, m := range machines {
						if _, ok := m.(*shard.Demux); ok {
							t.Errorf("S = 1 put a shard.Demux on the transport (replica %v)", m.ID())
						}
					}
					net = faultnet.New(machines, faultnet.Options{Seed: seed, Delay: faultnet.Uniform{Lo: 1, Hi: 3}, Trace: trace})
					return net
				},
				Storage: &StorageHooks{FS: wal.NewMemFS()},
			},
		}
		var update func(string) error
		var read func() ([]Item, error)
		var stop func()
		if viaStore {
			st, err := NewStore(ShardedConfig{Shards: 1, ServiceConfig: cfg})
			if err != nil {
				t.Fatal(err)
			}
			update, stop = st.Update, st.Close
			read = func() ([]Item, error) { return st.Read("") }
		} else {
			svc, err := NewService(cfg)
			if err != nil {
				t.Fatal(err)
			}
			update, read, stop = svc.Update, svc.Read, svc.Close
		}
		for k := 0; k < 24; k++ {
			if err := update(AddCmd(fmt.Sprintf("one-%02d", k))); err != nil {
				t.Fatalf("seed %d: update %d: %v", seed, k, err)
			}
			net.Quiesce()
			if k%4 == 3 {
				if _, err := read(); err != nil {
					t.Fatalf("seed %d: read: %v", seed, err)
				}
				net.Quiesce()
			}
		}
		stop()
		return trace, cons
	}
	svcTrace, svcCons := run(false)
	stTrace, stCons := run(true)
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

// explorerRun executes the explorer's generic scenario (a small
// Service under a randomized schedule) and returns the violations.
// sabotage injects a deliberate observation corruption (tests only).
func explorerRun(t *testing.T, seed int64, mask uint64, sabotage func(*faultnet.Schedule) func(*faultnet.RunObs)) []string {
	sc := scenarioConfig{replicas: 4, faulty: 1, maxDelay: 3}
	var sched *faultnet.Schedule
	sc.sched = func(h *harness) *faultnet.Schedule {
		sched = faultnet.Random(seed, faultnet.RandParams{
			Procs: ident.Range(4), Horizon: 1500, MaxOps: 5,
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
	return obs.Check()
}

// reproLine prints the exact command replaying a failing schedule.
func reproLine(seed int64, mask uint64) string {
	return fmt.Sprintf("go test -run 'TestFaultnetExplorer$' -seed=%d -faultnet.ops=%d .", seed, mask)
}

// TestFaultnetExplorer sweeps N seeded random fault schedules over the
// full stack and checks every invariant on each run. On failure it
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
		sched := faultnet.Random(seed, faultnet.RandParams{Procs: ident.Range(4), Horizon: 1500, MaxOps: 5})
		if v := explorerRun(t, seed, *opsFlag, nil); len(v) != 0 {
			mask := faultnet.Shrink(len(sched.Ops), func(m uint64) bool {
				return len(explorerRun(t, seed, m, nil)) != 0
			})
			t.Fatalf("seed %d: invariant violations under %s:\n  %s\nminimal schedule: %s\nreplay: %s",
				seed, sched.Mask(*opsFlag), strings.Join(v, "\n  "),
				sched.Mask(mask), reproLine(seed, mask))
		}
		t.Logf("seed %d clean: %s", seed, sched)
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
		return len(explorerRun(t, seed, mask, sabotage)) != 0
	}
	// Find a seed whose random schedule contains a Dup op.
	var seed int64 = -1
	var sched *faultnet.Schedule
	for s := int64(1); s < 40; s++ {
		cand := faultnet.Random(s, faultnet.RandParams{Procs: ident.Range(4), Horizon: 1500, MaxOps: 5})
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

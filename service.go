package bgla

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bgla/internal/batch"
	"bgla/internal/compact"
	"bgla/internal/core"
	"bgla/internal/core/gwts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
	"bgla/internal/sig"
	"bgla/internal/wal"
)

// ObsConfig wires a cluster into the unified observability layer
// (internal/obs, DESIGN.md §9). The zero value is fully functional:
// every instrument lands in a private registry (so the Stats snapshot
// API always works) and no trace is recorded.
type ObsConfig struct {
	// Registry receives every metric family the stack registers:
	// pipeline counters and gauges, the decision-latency histogram, and
	// pull-mode views over the compaction and storage aggregates. Nil
	// gets a private registry, reachable through Service.Metrics.
	Registry *obs.Registry
	// Clock timestamps trace events and decision-latency samples (nil =
	// obs.WallClock). The deterministic harness substitutes faultnet
	// virtual time, which makes the consensus trace byte-stable across
	// same-seed runs.
	Clock obs.Clock
	// ConsensusTrace, when non-nil, receives the replica-side protocol
	// events (propose/ack/tally/decide/ckpt_install/state_transfer/
	// wal_sync). All fields are deterministic functions of machine state,
	// so under faultnet with the virtual clock the trace is byte-stable.
	ConsensusTrace *obs.Tracer
	// ClientTrace, when non-nil, receives the batching pipeline's
	// client-side events (flight launch/decide). Launches race residual
	// network deliveries, so this trace is NOT byte-stable even under
	// faultnet — keep it out of determinism assertions.
	ClientTrace *obs.Tracer
}

// normalize resolves the nil defaults once, so every component built
// from the config shares one registry and clock.
func (o *ObsConfig) normalize() {
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Clock == nil {
		o.Clock = obs.WallClock
	}
}

// ServiceConfig configures a live in-process Byzantine-tolerant RSM.
type ServiceConfig struct {
	// Replicas is n; Faulty is the tolerated bound f (n >= 3f+1).
	Replicas int
	Faulty   int
	// MuteReplicas lists replica indices to run as silent Byzantine
	// replicas (fault injection; at most Faulty of them).
	MuteReplicas []int
	// Jitter randomizes delivery delays (0 = immediate).
	Jitter time.Duration
	// Seed drives the jitter RNG.
	Seed int64
	// OpTimeout bounds each Update/Read call (default 30s).
	OpTimeout time.Duration

	// Batching pipeline knobs (zero = defaults; see internal/batch).
	//
	// MaxBatch bounds operations coalesced into one lattice proposal
	// (default 64; 1 with MaxInFlight 1 restores the seed's strictly
	// one-at-a-time client).
	MaxBatch int
	// MaxBatchDelay bounds how long a forming batch lingers for more
	// operations once every flight slot is busy (default 200µs).
	MaxBatchDelay time.Duration
	// MinBatch is the group-commit floor: a forming batch waits (up to
	// MaxBatchDelay) for at least this many operations even while
	// flight slots are free (default 1 — no waiting when idle; see
	// internal/batch).
	MinBatch int
	// MaxInFlight bounds pipelined proposals (default 8).
	MaxInFlight int
	// QueueDepth bounds queued operations; beyond it callers block —
	// backpressure (default 4096).
	QueueDepth int

	// CheckpointEvery enables checkpointed history compaction
	// (internal/compact, DESIGN.md §6): once a replica's decided window
	// beyond the current certified base reaches this many commands, the
	// cluster folds the decided prefix into a 2f+1-signed checkpoint
	// certificate and every replica rewrites its live state as
	// "certified base + O(window) frontier". Per-round protocol cost
	// and resident state then stay flat as history grows, and a lagging
	// or restarted replica catches up from a peer's checkpoint via
	// state transfer instead of replaying history. 0 disables (the
	// seed's unbounded-history behaviour).
	CheckpointEvery int
	// CheckpointBytes adds a byte-denominated trigger: checkpoint once
	// the window's command bodies exceed this many bytes (0 disables
	// the byte trigger; either threshold firing initiates a
	// checkpoint).
	CheckpointBytes int

	// DataDir enables the durable storage engine (internal/wal,
	// DESIGN.md §8): each replica appends its decided rounds and
	// installed checkpoint certificates to a write-ahead log under
	// DataDir/shard-<s>/replica-<i>, and on construction rehydrates
	// from whatever the directory holds before touching the network —
	// a restarted replica (or a fully restarted cluster) resumes from
	// local disk, replaying only O(window) records beyond the newest
	// persisted checkpoint and asking peers only for what the disk
	// lost. Empty disables durability (the seed's in-memory behaviour).
	DataDir string
	// SyncMode selects the WAL fsync policy: "record" (fsync per
	// decided record), "group" or "" (group commit — the default) or
	// "off" (the OS page cache decides). See wal.SyncPolicy.
	SyncMode string
	// GroupSync is the group-commit interval in records (0 = 32).
	GroupSync int
	// SegmentBytes rotates WAL segments at this size (0 = 1 MiB).
	SegmentBytes int

	// Obs wires the cluster's instruments and traces into a shared
	// observability surface (zero value = private registry, wall clock,
	// no tracing).
	Obs ObsConfig

	// Hooks are test-only fault-injection points: a replacement
	// transport (the deterministic harness of internal/faultnet),
	// per-slot replica wrappers (active Byzantine adversaries,
	// crash-restart wrappers) and a substitute storage stack (wal.MemFS
	// plus torn-write/partial-fsync hooks). Nil in production.
	Hooks *ServiceHooks
}

// clientID is the identity the Service uses on the network.
const clientID ident.ProcessID = 1_000_000

// defaultOpTimeout bounds each operation when the config leaves
// OpTimeout zero.
const defaultOpTimeout = 30 * time.Second

// gateway is the Service's in-network presence: it forwards replica
// notifications to the batching pipeline, which content-matches them
// against every in-flight batch (no stale-drop window: a live reply is
// never discarded just because a previous operation's leftovers arrive
// with it).
type gateway struct {
	proto.Recorder
	deliver func(from ident.ProcessID, m msg.Msg)
}

func (g *gateway) ID() ident.ProcessID   { return clientID }
func (g *gateway) Start() []proto.Output { return nil }
func (g *gateway) Handle(from ident.ProcessID, m msg.Msg) []proto.Output {
	g.deliver(from, m)
	return nil
}

// transportSender adapts the transport to the pipeline.
type transportSender struct{ net Transport }

func (s transportSender) Send(to ident.ProcessID, m msg.Msg) {
	s.net.Inject(clientID, to, m)
}

// Service is a live Byzantine-tolerant replicated state machine for
// commutative updates (§7): a cluster of GWTS replicas on a concurrent
// in-process network fronted by a batching, pipelining client gateway
// (internal/batch). All methods are safe for concurrent use from many
// goroutines; concurrent operations are coalesced into joint lattice
// proposals (GLA decides joins, so batching is semantically free) and
// several proposals are kept in flight, while each individual call
// retains the blocking Algorithm 5/6 semantics of the paper's client.
type Service struct {
	cfg  ServiceConfig
	net  Transport
	gw   *gateway
	pipe *batch.Pipeline
	reps []*gwts.Machine
	pers []*wal.Persister
	seq  atomic.Int64

	closeOnce sync.Once
	closed    atomic.Bool
	frozen    frozenStats
}

// frozenStats is the terminal snapshot Close captures after teardown,
// so the Stats surfaces stay stable (and race-free) once the cluster
// is gone.
type frozenStats struct {
	batch      BatchStats
	compaction CompactionStats
	storage    StorageStats
	latency    obs.HistSnapshot
}

// replicaCompaction builds the per-replica checkpoint configuration
// (zero when disabled). The keychain is the fast deterministic
// simulation scheme — the in-process transport already authenticates
// senders, and DESIGN.md §3 explains why protocol-visible behaviour is
// identical to Ed25519.
func replicaCompaction(cfg ServiceConfig, kc sig.Keychain, id ident.ProcessID) compact.Config {
	if cfg.CheckpointEvery <= 0 && cfg.CheckpointBytes <= 0 {
		return compact.Config{}
	}
	return compact.Config{
		Self: id, N: cfg.Replicas, F: cfg.Faulty,
		Keychain: kc, Signer: kc.SignerFor(id),
		Every: cfg.CheckpointEvery, Bytes: cfg.CheckpointBytes,
	}
}

// openReplicaLog opens (and recovers) one replica's durable log,
// rehydrates the freshly built machine from it, and returns the
// persisting wrapper to place on the network.
func openReplicaLog(cfg ServiceConfig, shard, replica int, r *gwts.Machine) (*wal.Persister, error) {
	opt, err := cfg.walOptions(shard, replica)
	if err != nil {
		return nil, err
	}
	p, err := wal.OpenFor(cfg.storageFS(), wal.ReplicaDir(cfg.DataDir, shard, replica), opt, r)
	if err != nil {
		return nil, fmt.Errorf("bgla: open wal shard %d replica %d: %w", shard, replica, err)
	}
	return p, nil
}

// NewService builds and starts the cluster.
func NewService(cfg ServiceConfig) (*Service, error) {
	if err := core.ValidateConfig(cfg.Replicas, cfg.Faulty); err != nil {
		return nil, err
	}
	if len(cfg.MuteReplicas) > cfg.Faulty {
		return nil, fmt.Errorf("bgla: %d mute replicas exceed f=%d", len(cfg.MuteReplicas), cfg.Faulty)
	}
	for _, i := range cfg.MuteReplicas {
		if i < 0 || i >= cfg.Replicas {
			return nil, fmt.Errorf("bgla: mute replica %d out of range", i)
		}
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = defaultOpTimeout
	}
	cfg.Obs.normalize()
	mute := ident.NewSet()
	for _, i := range cfg.MuteReplicas {
		mute.Add(ident.ProcessID(i))
	}
	gw := &gateway{}
	machines := []proto.Machine{gw}
	var kc sig.Keychain
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		kc = sig.NewSim(cfg.Replicas, cfg.Seed+0x5eed)
	}
	var reps []*gwts.Machine
	var pers []*wal.Persister
	for i := 0; i < cfg.Replicas; i++ {
		id := ident.ProcessID(i)
		if mute.Has(id) {
			machines = append(machines, cfg.wrapReplica(0, i, &muteMachine{id: id}))
			continue
		}
		rc := rsm.ReplicaConfig{
			Self: id, N: cfg.Replicas, F: cfg.Faulty,
			Clients: []ident.ProcessID{clientID},
			Trace:   cfg.Obs.ConsensusTrace, Clock: cfg.Obs.Clock,
		}
		if kc != nil {
			rc.Compaction = replicaCompaction(cfg, kc, id)
		}
		r, err := rsm.NewReplica(rc)
		if err != nil {
			return nil, err
		}
		m := proto.Machine(r)
		if cfg.DataDir != "" {
			p, err := openReplicaLog(cfg, 0, i, r)
			if err != nil {
				return nil, err
			}
			pers = append(pers, p)
			m = p
		}
		w := cfg.wrapReplica(0, i, m)
		if w == m {
			// Replaced slots (adversaries) drop out of stats
			// aggregation; wrapped slots keep their machine via the
			// hook's own reference.
			reps = append(reps, r)
		}
		machines = append(machines, w)
	}
	net := cfg.newTransport(machines)

	// A restarted client must resume its sequence past everything its
	// previous incarnation got decided: the lattice is a set, so a
	// reused (client, seq) command or read marker is absorbed by the
	// recovered state without a fresh decision and never confirms.
	startSeq := recoveredSeq(pers)

	// Trigger new_value at f+1 correct replicas: mute ones would relay
	// nothing, so target the first f+1 non-mute (correct replicas relay
	// through agreement and all eventually decide either way).
	var submitTo []ident.ProcessID
	for i := 0; i < cfg.Replicas && len(submitTo) < core.ReadQuorum(cfg.Faulty); i++ {
		if id := ident.ProcessID(i); !mute.Has(id) {
			submitTo = append(submitTo, id)
		}
	}
	pipe, err := batch.New(batch.Config{
		Client:      clientID,
		Replicas:    ident.Range(cfg.Replicas),
		SubmitTo:    submitTo,
		F:           cfg.Faulty,
		MaxBatch:    cfg.MaxBatch,
		MaxDelay:    cfg.MaxBatchDelay,
		MinBatch:    cfg.MinBatch,
		MaxInFlight: cfg.MaxInFlight,
		QueueDepth:  cfg.QueueDepth,
		OpTimeout:   cfg.OpTimeout,
		StartSeq:    uint64(startSeq),
		Registry:    cfg.Obs.Registry,
		Clock:       cfg.Obs.Clock,
		Trace:       cfg.Obs.ClientTrace,
	}, transportSender{net: net})
	if err != nil {
		return nil, err
	}
	registerClusterViews(cfg.Obs.Registry, reps, pers)
	gw.deliver = pipe.Deliver
	net.Start()
	s := &Service{cfg: cfg, net: net, gw: gw, pipe: pipe, reps: reps, pers: pers}
	s.seq.Store(int64(startSeq))
	return s, nil
}

// recoveredSeq is the highest client sequence number found in any
// replica's recovered state (0 on a fresh data directory or when
// storage is disabled).
func recoveredSeq(pers []*wal.Persister) int {
	max := 0
	for _, p := range pers {
		if rec := p.Recovered(); rec != nil {
			if v := rsm.MaxSeq(clientID, rec.Decided()); v > max {
				max = v
			}
		}
	}
	return max
}

// Close shuts the cluster down; blocked callers return an error.
// Idempotent and safe for concurrent use — aggregates like Store fan
// Close out over many components without coordinating callers, and a
// second Close (defer + explicit) must not re-stop the network.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.pipe.Close()
		s.net.Stop()
		// The transport has quiesced: flush and close the logs last so
		// every decided record the machines produced is on disk.
		for _, p := range s.pers {
			_ = p.Close()
		}
		// Everything has stopped moving: freeze the stats surfaces so
		// post-close snapshots are stable — a scraper (or a test)
		// reading after Close sees one consistent terminal state, never
		// a machine mid-teardown.
		s.frozen = frozenStats{
			batch:      batchStatsOf(s.pipe),
			compaction: aggregateCompaction(s.reps),
			storage:    aggregateStorage(s.pers),
			latency:    s.pipe.LatencySnapshot(),
		}
		s.closed.Store(true)
	})
}

// Update applies a commutative command to the replicated state and
// returns once the command is durably decided (Algorithm 5). The body
// is made unique automatically (client identity + sequence number).
func (s *Service) Update(body string) error {
	return s.UpdateCtx(context.Background(), body)
}

// UpdateCtx is Update with caller-controlled cancellation: it returns
// early (without waiting out OpTimeout) when ctx is cancelled while the
// operation is queued or in flight.
func (s *Service) UpdateCtx(ctx context.Context, body string) error {
	cmd := rsm.UniqueCmd(clientID, int(s.seq.Add(1)), body)
	return s.pipe.Update(ctx, cmd)
}

// Read returns the current confirmed state of the RSM as command items
// (read markers stripped), per Algorithm 6. Bodies keep the uniqueness
// suffix added by Update; the CRDT views parse through it.
func (s *Service) Read() ([]Item, error) {
	return s.ReadCtx(context.Background())
}

// ReadCtx is Read with caller-controlled cancellation.
func (s *Service) ReadCtx(ctx context.Context) ([]Item, error) {
	v, err := s.pipe.Read(ctx)
	if err != nil {
		return nil, err
	}
	return readItems(v), nil
}

// readItems is the result of a confirmed read: the decided value's
// commands, read markers dropped, in canonical order. One walk of v and
// one allocation; nothing is sorted or hashed.
func readItems(v lattice.Set) []Item {
	out := make([]Item, 0, v.Len())
	v.Each(func(it lattice.Item) bool {
		if !rsm.IsNop(it) {
			out = append(out, Item{Author: int(it.Author), Body: it.Body})
		}
		return true
	})
	return out
}

// BatchStats reports pipeline activity: how many operations ran, how
// many lattice proposals (flights) carried them, and the resulting
// amortization (AvgBatch > 1 means agreement rounds were shared).
type BatchStats struct {
	Ops, Updates, Reads uint64
	Flights             uint64
	MaxBatchOps         int
	Timeouts            uint64
	AvgBatch            float64
}

// batchStatsOf converts one pipeline's live counters to the public
// snapshot shape.
func batchStatsOf(p *batch.Pipeline) BatchStats {
	st := p.Stats()
	return BatchStats{
		Ops: st.Ops, Updates: st.Updates, Reads: st.Reads,
		Flights: st.Flights, MaxBatchOps: st.MaxBatchOps,
		Timeouts: st.Timeouts, AvgBatch: st.AvgBatch(),
	}
}

// BatchStats snapshots the batching pipeline's counters. After Close
// it returns the frozen terminal snapshot.
func (s *Service) BatchStats() BatchStats {
	if s.closed.Load() {
		return s.frozen.batch
	}
	return batchStatsOf(s.pipe)
}

// Metrics returns the registry backing the cluster's instruments (the
// configured ObsConfig.Registry, or the private one the zero config
// got). Serve it with obs.Handler for live /metrics and /debug/vars.
func (s *Service) Metrics() *obs.Registry { return s.cfg.Obs.Registry }

// LatencyStats returns the decision-latency histogram (flight launch
// to decide quorum, in Clock units — nanoseconds under the wall
// clock). After Close it returns the frozen terminal snapshot.
func (s *Service) LatencyStats() obs.HistSnapshot {
	if s.closed.Load() {
		return s.frozen.latency
	}
	return s.pipe.LatencySnapshot()
}

// CompactionStats aggregates the replicas' checkpoint activity: how
// many certificates were installed, the deepest certified prefix, and
// the state transfers served to (and completed by) lagging replicas.
// All zero when CheckpointEvery/CheckpointBytes are unset.
type CompactionStats struct {
	// Installs sums checkpoint installations across replicas;
	// CertsBuilt the certificates assembled; SigsIssued the
	// countersignatures produced.
	Installs, CertsBuilt, SigsIssued int64
	// TransfersServed / TransfersReceived count state-transfer replies
	// sent to and catch-ups completed from peers' checkpoints;
	// TransfersRequested the state_req round-trips initiated (a
	// restarted replica with an intact local WAL needs none).
	TransfersServed, TransfersReceived, TransfersRequested int64
	// MaxEpoch is the deepest replica's checkpoint count; MinBaseLen
	// and MaxBaseLen bound the certified prefix sizes across replicas.
	MaxEpoch, MinBaseLen, MaxBaseLen int64
}

func aggregateCompaction(reps []*gwts.Machine) CompactionStats {
	var out CompactionStats
	first := true
	for _, r := range reps {
		st := r.CompactionStats()
		out.Installs += st.Installs
		out.CertsBuilt += st.CertsBuilt
		out.SigsIssued += st.SigsIssued
		out.TransfersServed += st.TransfersServed
		out.TransfersReceived += st.TransfersReceived
		out.TransfersRequested += st.TransfersRequested
		if st.Epoch > out.MaxEpoch {
			out.MaxEpoch = st.Epoch
		}
		if st.BaseLen > out.MaxBaseLen {
			out.MaxBaseLen = st.BaseLen
		}
		if first || st.BaseLen < out.MinBaseLen {
			out.MinBaseLen = st.BaseLen
		}
		first = false
	}
	return out
}

// CompactionStats snapshots the correct replicas' checkpoint counters
// (atomics — safe while the cluster runs). After Close it returns the
// frozen terminal snapshot.
func (s *Service) CompactionStats() CompactionStats {
	if s.closed.Load() {
		return s.frozen.compaction
	}
	return aggregateCompaction(s.reps)
}

// StorageStats aggregates the replicas' durable-log activity (all zero
// when DataDir is unset). See wal.Stats for the per-log fields.
type StorageStats struct {
	// Records / Bytes / Syncs count framed records appended, bytes
	// written and fsyncs issued across replicas; SyncsDropped the syncs
	// a fault hook suppressed.
	Records, Bytes, Syncs, SyncsDropped int64
	// Rotations / Snapshots / Pruned count segment rolls, checkpoint
	// snapshots written, and covered files deleted.
	Rotations, Snapshots, Pruned int64
	// Errors counts wedged logs' write failures.
	Errors int64
	// RecoveredRecords / RecoveredItems describe what the last Open
	// replayed from disk; RecoveredDiscarded the damaged bytes dropped;
	// TornTails how many replicas healed a torn tail.
	RecoveredRecords, RecoveredItems, RecoveredDiscarded int64
	TornTails                                            int64
}

func aggregateStorage(pers []*wal.Persister) StorageStats {
	var out StorageStats
	for _, p := range pers {
		st := p.Log().Stats()
		out.Records += st.Records
		out.Bytes += st.Bytes
		out.Syncs += st.Syncs
		out.SyncsDropped += st.SyncsDropped
		out.Rotations += st.Rotations
		out.Snapshots += st.Snapshots
		out.Pruned += st.Pruned
		out.Errors += st.Errors
		out.RecoveredRecords += st.RecoveredRecords
		out.RecoveredItems += st.RecoveredItems
		out.RecoveredDiscarded += st.RecoveredDiscarded
		if st.TornTail {
			out.TornTails++
		}
	}
	return out
}

// StorageStats snapshots the replicas' WAL counters (atomics — safe
// while the cluster runs). After Close it returns the frozen terminal
// snapshot.
func (s *Service) StorageStats() StorageStats {
	if s.closed.Load() {
		return s.frozen.storage
	}
	return aggregateStorage(s.pers)
}

// registerClusterViews registers pull-mode registry views over the
// compaction and storage aggregates, so /metrics exposes the same
// numbers the CompactionStats/StorageStats snapshots report. Re-used
// registries replace the views (CounterFunc semantics) — the newest
// cluster wins, matching how tests rebuild services over one registry.
func registerClusterViews(reg *obs.Registry, reps []*gwts.Machine, pers []*wal.Persister) {
	comp := func(pick func(CompactionStats) int64) func() uint64 {
		return func() uint64 { return uint64(pick(aggregateCompaction(reps))) }
	}
	reg.CounterFunc("bgla_ckpt_installs_total", comp(func(c CompactionStats) int64 { return c.Installs }))
	reg.CounterFunc("bgla_ckpt_certs_total", comp(func(c CompactionStats) int64 { return c.CertsBuilt }))
	reg.CounterFunc("bgla_ckpt_sigs_total", comp(func(c CompactionStats) int64 { return c.SigsIssued }))
	reg.CounterFunc("bgla_ckpt_transfers_total", comp(func(c CompactionStats) int64 { return c.TransfersServed }), "dir", "served")
	reg.CounterFunc("bgla_ckpt_transfers_total", comp(func(c CompactionStats) int64 { return c.TransfersReceived }), "dir", "received")
	reg.CounterFunc("bgla_ckpt_transfers_total", comp(func(c CompactionStats) int64 { return c.TransfersRequested }), "dir", "requested")
	reg.GaugeFunc("bgla_ckpt_epoch", func() int64 { return aggregateCompaction(reps).MaxEpoch })
	reg.GaugeFunc("bgla_ckpt_base_len", func() int64 { return aggregateCompaction(reps).MaxBaseLen })

	stor := func(pick func(StorageStats) int64) func() uint64 {
		return func() uint64 { return uint64(pick(aggregateStorage(pers))) }
	}
	reg.CounterFunc("bgla_wal_records_total", stor(func(s StorageStats) int64 { return s.Records }))
	reg.CounterFunc("bgla_wal_bytes_total", stor(func(s StorageStats) int64 { return s.Bytes }))
	reg.CounterFunc("bgla_wal_syncs_total", stor(func(s StorageStats) int64 { return s.Syncs }))
	reg.CounterFunc("bgla_wal_syncs_dropped_total", stor(func(s StorageStats) int64 { return s.SyncsDropped }))
	reg.CounterFunc("bgla_wal_rotations_total", stor(func(s StorageStats) int64 { return s.Rotations }))
	reg.CounterFunc("bgla_wal_snapshots_total", stor(func(s StorageStats) int64 { return s.Snapshots }))
	reg.CounterFunc("bgla_wal_errors_total", stor(func(s StorageStats) int64 { return s.Errors }))
}

package bgla

import (
	"context"
	"time"

	"bgla/internal/batch"
	"bgla/internal/compact"
	"bgla/internal/core/gwts"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rsm"
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
	// OpTimeout bounds each Update/Read call (default 30s; negative is
	// rejected).
	OpTimeout time.Duration

	// Batching pipeline knobs (zero = defaults; see internal/batch).
	// A batch launches as soon as a flight slot is free and grows only
	// while every slot is busy; the queue in front of it holds 4096
	// operations, beyond which callers block (backpressure).
	//
	// MaxBatch bounds operations coalesced into one lattice proposal
	// (default 64; 1 with MaxInFlight 1 restores the seed's strictly
	// one-at-a-time client).
	MaxBatch int
	// MaxInFlight bounds pipelined proposals (default 8).
	MaxInFlight int

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
	// "off" (the OS page cache decides). See wal.SyncPolicy. Group
	// commit syncs every 32 records and segments rotate at 1 MiB (the
	// wal.Options defaults).
	SyncMode string

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

// gateway is the client's in-network presence at S = 1: it forwards
// replica notifications to the batching pipeline, which content-matches
// them against every in-flight batch (no stale-drop window: a live
// reply is never discarded just because a previous operation's
// leftovers arrive with it). A sharded Store uses shard.Gateway.
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

// transportSender adapts the transport to an unsharded pipeline.
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
//
// A Service is a Store with one shard (DESIGN.md §5): at S = 1 the
// shard layer is empty, so the wire carries the unwrapped protocol.
type Service struct{ st *Store }

// NewService builds and starts the cluster.
func NewService(cfg ServiceConfig) (*Service, error) {
	st, err := NewStore(ShardedConfig{Shards: 1, ServiceConfig: cfg})
	if err != nil {
		return nil, err
	}
	return &Service{st: st}, nil
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
// Idempotent and safe for concurrent use (see Store.Close).
func (s *Service) Close() { s.st.Close() }

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
	return s.st.UpdateCtx(ctx, body)
}

// Read returns the current confirmed state of the RSM as command items
// (read markers stripped), per Algorithm 6. Bodies keep the uniqueness
// suffix added by Update; the CRDT views parse through it.
func (s *Service) Read() ([]Item, error) {
	return s.ReadCtx(context.Background())
}

// ReadCtx is Read with caller-controlled cancellation.
func (s *Service) ReadCtx(ctx context.Context) ([]Item, error) {
	return s.st.ReadCtx(ctx, "")
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

// BatchStats snapshots the batching pipeline's counters.
func (s *Service) BatchStats() BatchStats { return s.st.Stats().Total }

// Metrics returns the registry backing the cluster's instruments (the
// configured ObsConfig.Registry, or the private one the zero config
// got). Serve it with obs.Handler for live /metrics and /debug/vars.
func (s *Service) Metrics() *obs.Registry { return s.st.Metrics() }

// LatencyStats returns the decision-latency histogram (flight launch
// to decide quorum, in Clock units — nanoseconds under the wall
// clock).
func (s *Service) LatencyStats() obs.HistSnapshot { return s.st.LatencyStats() }

// registerClusterViews registers pull-mode registry views over the
// correct replicas' checkpoint counters (compact.Stats) and their
// durable logs' counters (wal.Stats): counters sum across every shard
// replica, the epoch and base-length gauges report the deepest one.
// Re-used registries replace the views (CounterFunc semantics) — the
// newest cluster wins, matching how tests rebuild services over one
// registry.
func registerClusterViews(reg *obs.Registry, reps []*gwts.Machine, pers []*wal.Persister) {
	ckptSum := func(pick func(compact.Stats) int64) func() uint64 {
		return func() uint64 {
			var n int64
			for _, r := range reps {
				n += pick(r.CompactionStats())
			}
			return uint64(n)
		}
	}
	ckptMax := func(pick func(compact.Stats) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, r := range reps {
				n = max(n, pick(r.CompactionStats()))
			}
			return n
		}
	}
	reg.CounterFunc("bgla_ckpt_installs_total", ckptSum(func(c compact.Stats) int64 { return c.Installs }))
	reg.CounterFunc("bgla_ckpt_certs_total", ckptSum(func(c compact.Stats) int64 { return c.CertsBuilt }))
	reg.CounterFunc("bgla_ckpt_sigs_total", ckptSum(func(c compact.Stats) int64 { return c.SigsIssued }))
	reg.CounterFunc("bgla_ckpt_transfers_total", ckptSum(func(c compact.Stats) int64 { return c.TransfersServed }), "dir", "served")
	reg.CounterFunc("bgla_ckpt_transfers_total", ckptSum(func(c compact.Stats) int64 { return c.TransfersReceived }), "dir", "received")
	reg.CounterFunc("bgla_ckpt_transfers_total", ckptSum(func(c compact.Stats) int64 { return c.TransfersRequested }), "dir", "requested")
	reg.GaugeFunc("bgla_ckpt_epoch", ckptMax(func(c compact.Stats) int64 { return c.Epoch }))
	reg.GaugeFunc("bgla_ckpt_base_len", ckptMax(func(c compact.Stats) int64 { return c.BaseLen }))

	walSum := func(pick func(wal.Stats) int64) func() uint64 {
		return func() uint64 {
			var n int64
			for _, p := range pers {
				n += pick(p.Log().Stats())
			}
			return uint64(n)
		}
	}
	reg.CounterFunc("bgla_wal_records_total", walSum(func(s wal.Stats) int64 { return s.Records }))
	reg.CounterFunc("bgla_wal_bytes_total", walSum(func(s wal.Stats) int64 { return s.Bytes }))
	reg.CounterFunc("bgla_wal_syncs_total", walSum(func(s wal.Stats) int64 { return s.Syncs }))
	reg.CounterFunc("bgla_wal_syncs_dropped_total", walSum(func(s wal.Stats) int64 { return s.SyncsDropped }))
	reg.CounterFunc("bgla_wal_rotations_total", walSum(func(s wal.Stats) int64 { return s.Rotations }))
	reg.CounterFunc("bgla_wal_snapshots_total", walSum(func(s wal.Stats) int64 { return s.Snapshots }))
	reg.CounterFunc("bgla_wal_errors_total", walSum(func(s wal.Stats) int64 { return s.Errors }))
	reg.CounterFunc("bgla_wal_recovered_items_total", walSum(func(s wal.Stats) int64 { return s.RecoveredItems }))
}

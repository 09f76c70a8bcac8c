package bgla

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	"bgla/internal/shard"
	"bgla/internal/sig"
	"bgla/internal/wal"
)

// ShardedConfig configures a sharded multi-lattice store: S independent
// BGLA clusters (each the full §7 construction — its own GWTS protocol
// state, batching pipeline and wire streams) multiplexed over one
// shared transport by the shard-tagged envelope of internal/shard.
type ShardedConfig struct {
	// Shards is S, the number of independent lattice instances
	// (default 1, which is an unsharded Service with a Scan method).
	Shards int

	// ServiceConfig carries the per-cluster knobs: every shard runs on
	// the same n replica processes with the same fault bound, jitter and
	// batching pipeline configuration. MuteReplicas mutes a replica
	// process in every shard.
	ServiceConfig

	// ShardMutes[s] lists replica indices to run as mute Byzantine
	// replicas in shard s only (per-shard fault injection: the replica
	// process stays correct for every other shard). Combined with
	// MuteReplicas, at most Faulty replicas may be mute per shard.
	ShardMutes [][]int
}

// Store is a horizontally partitioned replicated state machine:
// commands are routed to one of S independent lattices by the data-item
// key they address (hash-partitioned when keyless), so aggregate
// throughput scales with S while each shard keeps the exact per-key
// semantics, fault tolerance and client guarantees of the single
// Service. All methods are safe for concurrent use.
//
//   - Update routes a command to its shard (Algorithm 5 semantics
//     within that shard);
//   - Read is a confirmed point read of one key's shard (Algorithm 6);
//   - Scan is a consistent cross-shard read: per-shard confirmed reads
//     merged under a rescan loop that retries until no shard's view
//     advanced between two consecutive passes, which pins the merged
//     result to a real global state (see DESIGN.md §5) — so any two
//     Scans are totally ordered, like single-lattice reads.
type Store struct {
	cfg     ShardedConfig
	net     Transport
	demuxes []*shard.Demux
	pipes   []*batch.Pipeline
	reps    []*gwts.Machine
	pers    []*wal.Persister
	seq     atomic.Uint64

	scans       atomic.Uint64
	scanPasses  atomic.Uint64
	scanRetries atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand

	closeOnce sync.Once
}

// NewStore builds and starts the sharded cluster.
func NewStore(cfg ShardedConfig) (*Store, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("bgla: %d shards", cfg.Shards)
	}
	if err := core.ValidateConfig(cfg.Replicas, cfg.Faulty); err != nil {
		return nil, err
	}
	if len(cfg.ShardMutes) > cfg.Shards {
		return nil, fmt.Errorf("bgla: mutes for %d shards, only %d configured", len(cfg.ShardMutes), cfg.Shards)
	}
	if cfg.OpTimeout < 0 {
		return nil, fmt.Errorf("bgla: negative OpTimeout %v", cfg.OpTimeout)
	}
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = defaultOpTimeout
	}
	cfg.Obs.normalize()

	// Per-shard mute sets: process-wide mutes apply everywhere, shard
	// mutes only to their shard. Each shard independently tolerates at
	// most Faulty mute replicas.
	for _, i := range cfg.MuteReplicas {
		if i < 0 || i >= cfg.Replicas {
			return nil, fmt.Errorf("bgla: mute replica %d out of range", i)
		}
	}
	mutes := make([]*ident.Set, cfg.Shards)
	for s := range mutes {
		mutes[s] = ident.NewSet()
		for _, i := range cfg.MuteReplicas {
			mutes[s].Add(ident.ProcessID(i))
		}
	}
	for s, list := range cfg.ShardMutes {
		for _, i := range list {
			if i < 0 || i >= cfg.Replicas {
				return nil, fmt.Errorf("bgla: shard %d mute replica %d out of range", s, i)
			}
			mutes[s].Add(ident.ProcessID(i))
		}
	}
	for s := range mutes {
		if mutes[s].Len() > cfg.Faulty {
			return nil, fmt.Errorf("bgla: %d mute replicas in shard %d exceed f=%d", mutes[s].Len(), s, cfg.Faulty)
		}
	}

	var kc sig.Keychain
	if cfg.CheckpointEvery > 0 || cfg.CheckpointBytes > 0 {
		kc = sig.NewSim(cfg.Replicas, cfg.Seed+0x5eed)
	}
	// At S = 1 the shard layer is empty: the replicas sit on the
	// transport directly and the client speaks the unwrapped protocol
	// (plain gateway and sender, no demux, no envelope).
	pipes := make([]*batch.Pipeline, cfg.Shards)
	var gw proto.Machine = &gateway{deliver: func(from ident.ProcessID, m msg.Msg) { pipes[0].Deliver(from, m) }}
	if cfg.Shards > 1 {
		sg := shard.NewGateway(clientID, cfg.Shards)
		sg.SetDeliver(func(s int, from ident.ProcessID, m msg.Msg) { pipes[s].Deliver(from, m) })
		gw = sg
	}
	all := append(ident.Range(cfg.Replicas), clientID)
	machines := []proto.Machine{gw}
	var demuxes []*shard.Demux
	var reps []*gwts.Machine
	var pers []*wal.Persister
	for i := 0; i < cfg.Replicas; i++ {
		id := ident.ProcessID(i)
		subs := make([]proto.Machine, cfg.Shards)
		for s := range subs {
			var r *gwts.Machine
			var m proto.Machine = &muteMachine{id: id}
			if !mutes[s].Has(id) {
				var p *wal.Persister
				var err error
				if r, p, err = newReplica(cfg, kc, s, i); err != nil {
					return nil, err
				}
				m = r
				if p != nil {
					pers = append(pers, p)
					m = p
				}
			}
			w := cfg.wrapReplica(s, i, m)
			if r != nil && w == m {
				// Replaced slots (adversaries) drop out of stats
				// aggregation; wrapped slots keep their machine via the
				// hook's own reference.
				reps = append(reps, r)
			}
			subs[s] = w
		}
		if cfg.Shards == 1 {
			machines = append(machines, subs[0])
			continue
		}
		d, err := shard.NewDemux(shard.DemuxConfig{Self: id, Subs: subs, All: all})
		if err != nil {
			return nil, err
		}
		demuxes = append(demuxes, d)
		machines = append(machines, d)
	}
	net := cfg.newTransport(machines)
	// A transport that sequences injections from inside Handle
	// (faultnet) is deterministic: its demuxes run inline on the
	// delivery goroutine, since shard workers would reintroduce
	// scheduling nondeterminism.
	si, inline := net.(syncInjector)
	for _, d := range demuxes {
		send := func(to ident.ProcessID, m msg.Msg) { net.Inject(d.ID(), to, m) }
		if inline {
			send = func(to ident.ProcessID, m msg.Msg) { si.InjectSync(d.ID(), to, m) }
		}
		d.SetSend(send, inline)
	}

	// A restarted client must resume its sequence past everything its
	// previous incarnation got decided: the lattice is a set, so a
	// reused (client, seq) command or read marker is absorbed by the
	// recovered state without a fresh decision and never confirms. All
	// shards share the client identity, so every shard pipeline starts
	// beyond the global maximum.
	startSeq := recoveredSeq(pers)

	for s := range pipes {
		// Trigger new_value at f+1 replicas correct *in this shard*:
		// mute ones would relay nothing, so target the first f+1
		// non-mute (correct replicas relay through agreement and all
		// eventually decide either way).
		var submitTo []ident.ProcessID
		for i := 0; i < cfg.Replicas && len(submitTo) < core.ReadQuorum(cfg.Faulty); i++ {
			if id := ident.ProcessID(i); !mutes[s].Has(id) {
				submitTo = append(submitTo, id)
			}
		}
		var send batch.Sender = transportSender{net: net}
		if cfg.Shards > 1 {
			send = shard.NewSender(s, func(to ident.ProcessID, m msg.Msg) { net.Inject(clientID, to, m) })
		}
		p, err := batch.New(batch.Config{
			Client:      clientID,
			Replicas:    ident.Range(cfg.Replicas),
			SubmitTo:    submitTo,
			F:           cfg.Faulty,
			MaxBatch:    cfg.MaxBatch,
			MaxInFlight: cfg.MaxInFlight,
			OpTimeout:   cfg.OpTimeout,
			StartSeq:    uint64(startSeq),
			Registry:    cfg.Obs.Registry,
			Shard:       s,
			Clock:       cfg.Obs.Clock,
			Trace:       cfg.Obs.ClientTrace,
		}, send)
		if err != nil {
			for _, q := range pipes {
				if q != nil {
					q.Close()
				}
			}
			return nil, err
		}
		pipes[s] = p
	}
	net.Start()
	st := &Store{
		cfg: cfg, net: net, demuxes: demuxes, pipes: pipes, reps: reps, pers: pers,
		rng: rand.New(rand.NewSource(cfg.Seed + 0x5ca0)),
	}
	st.seq.Store(uint64(startSeq))
	registerClusterViews(cfg.Obs.Registry, reps, pers)
	reg := cfg.Obs.Registry
	reg.CounterFunc("bgla_scans_total", st.scans.Load)
	reg.CounterFunc("bgla_scan_passes_total", st.scanPasses.Load)
	reg.CounterFunc("bgla_scan_retries_total", st.scanRetries.Load)
	return st, nil
}

// newReplica builds the correct replica of one (shard, slot): the §7
// replica with its shard's checkpoint configuration (the configured
// thresholds are the store-wide budget, divided across shards — each
// shard sees ~1/S of the history — so compaction cadence tracks
// aggregate load) and, when DataDir is set, its durable log, from which
// the fresh machine is rehydrated before it touches the network; the
// returned persister is then the machine to place there. kc is the
// cluster keychain (nil when compaction is off): the fast deterministic
// simulation scheme — the in-process transport already authenticates
// senders, and DESIGN.md §3 explains why protocol-visible behaviour is
// identical to Ed25519.
func newReplica(cfg ShardedConfig, kc sig.Keychain, shard, slot int) (*gwts.Machine, *wal.Persister, error) {
	id := ident.ProcessID(slot)
	rc := rsm.ReplicaConfig{
		Self: id, N: cfg.Replicas, F: cfg.Faulty,
		Clients: []ident.ProcessID{clientID},
		Trace:   cfg.Obs.ConsensusTrace, Clock: cfg.Obs.Clock,
		Shard: shard,
	}
	if kc != nil {
		rc.Compaction = compact.Config{
			Self: id, N: cfg.Replicas, F: cfg.Faulty,
			Keychain: kc, Signer: kc.SignerFor(id),
			Every: compact.ScaleEvery(cfg.CheckpointEvery, cfg.Shards),
			Bytes: compact.ScaleBytes(cfg.CheckpointBytes, cfg.Shards),
		}
	}
	r, err := rsm.NewReplica(rc)
	if err != nil {
		return nil, nil, err
	}
	if cfg.DataDir == "" {
		return r, nil, nil
	}
	opt, err := cfg.walOptions(shard, slot)
	if err != nil {
		return nil, nil, err
	}
	p, err := wal.OpenFor(cfg.storageFS(), wal.ReplicaDir(cfg.DataDir, shard, slot), opt, r)
	if err != nil {
		return nil, nil, fmt.Errorf("bgla: open wal shard %d replica %d: %w", shard, slot, err)
	}
	return r, p, nil
}

// Close shuts the whole cluster down: every shard pipeline, every
// replica's shard workers, the transport, then the durable logs.
// Idempotent and safe to call concurrently (a second Close — defer plus
// explicit — must not re-stop the network); blocked callers return an
// error. Once Close returns nothing that feeds a counter is running, so
// Stats, LatencyStats and the registry views read a stable terminal
// state (only a later Scan call still counts itself).
func (st *Store) Close() {
	st.closeOnce.Do(func() {
		for _, p := range st.pipes {
			p.Close()
		}
		// Workers quiesce before the net stops: they inject into the
		// transport, and chanet.Stop must not race with Inject.
		for _, d := range st.demuxes {
			d.Stop()
		}
		st.net.Stop()
		// The transport has quiesced: flush and close the durable logs
		// last so every decided record reached disk.
		for _, p := range st.pers {
			_ = p.Close()
		}
	})
}

// Shards returns S.
func (st *Store) Shards() int { return st.cfg.Shards }

// ShardOfKey reports which shard owns a data-item key (the map key of
// PutCmd, the element of AddCmd/RemCmd).
func (st *Store) ShardOfKey(key string) int { return shard.Of(key, st.cfg.Shards) }

// Update applies a commutative command to the shard owning its key
// (hash-partitioned when keyless) and returns once it is durably
// decided there (Algorithm 5 within the shard).
func (st *Store) Update(body string) error {
	return st.UpdateCtx(context.Background(), body)
}

// UpdateCtx is Update with caller-controlled cancellation.
func (st *Store) UpdateCtx(ctx context.Context, body string) error {
	seq := st.seq.Add(1)
	s := shard.Route(body, seq, st.cfg.Shards)
	return st.pipes[s].Update(ctx, rsm.UniqueCmd(clientID, int(seq), body))
}

// Read returns the confirmed state of the shard owning key, as command
// items (Algorithm 6 within that shard). It covers every command
// addressing that key — a point read never pays for other shards.
func (st *Store) Read(key string) ([]Item, error) {
	return st.ReadCtx(context.Background(), key)
}

// ReadCtx is Read with caller-controlled cancellation.
func (st *Store) ReadCtx(ctx context.Context, key string) ([]Item, error) {
	v, err := st.pipes[st.ShardOfKey(key)].Read(ctx)
	if err != nil {
		return nil, err
	}
	return readItems(v), nil
}

// Scan consistency knobs: the rescan loop retries at most
// maxScanRescans times, sleeping a jittered, exponentially growing
// backoff between passes so a scan racing sustained writers stops
// burning CPU against the very pipelines it is waiting on.
const (
	maxScanRescans   = 16
	scanBackoffBase  = 200 * time.Microsecond
	scanBackoffLimit = 20 * time.Millisecond
)

// ErrScanContended reports that a Scan lost the double-collect race to
// concurrent writers maxScanRescans times in a row. Callers retry (or
// scan during a quieter window); returning a merged-but-unstable view
// would break the total order of Scans.
var ErrScanContended = errors.New("bgla: scan contended: shard views kept advancing between passes")

// Scan returns a consistent global state across every shard. Any two
// Scans are totally ordered (one reflects a superset of the commands of
// the other) and every completed Update is visible to later Scans.
func (st *Store) Scan() ([]Item, error) {
	return st.ScanCtx(context.Background())
}

// ScanCtx is Scan with caller-controlled cancellation. The rescan loop
// re-reads all shards until two consecutive passes agree; under heavy
// sustained writes each losing pass backs off (jittered exponential,
// observable as StoreStats.ScanRetries) and after maxScanRescans
// losses the scan fails with ErrScanContended rather than spinning
// against the writers (ctx and the configured OpTimeout bound the wait
// either way).
func (st *Store) ScanCtx(ctx context.Context) ([]Item, error) {
	st.scans.Add(1)
	// OpTimeout bounds the whole scan, not each inner read: a rescan
	// loop that keeps losing races against writers must eventually fail
	// rather than spin.
	ctx, cancel := context.WithTimeout(ctx, st.cfg.OpTimeout)
	defer cancel()
	views, err := st.collect(ctx)
	if err != nil {
		return nil, err
	}
	// S=1 is already a linearizable read; rescanning buys nothing.
	if st.cfg.Shards > 1 {
		stable := false
		for attempt := 0; attempt < maxScanRescans; attempt++ {
			next, err := st.collect(ctx)
			if err != nil {
				return nil, err
			}
			stable = true
			for s := range views {
				if views[s].Digest() != next[s].Digest() {
					stable = false
				}
			}
			views = next
			if stable {
				break
			}
			st.scanRetries.Add(1)
			if err := st.scanBackoff(ctx, attempt); err != nil {
				return nil, err
			}
		}
		if !stable {
			return nil, ErrScanContended
		}
	}
	// The stripped views are sorted sets: merge them straight into the
	// result, with no re-sort and no re-hash.
	n := 0
	for _, v := range views {
		n += v.Len()
	}
	out := make([]Item, 0, n)
	lattice.EachMerged(views, func(it lattice.Item) bool {
		out = append(out, Item{Author: int(it.Author), Body: it.Body})
		return true
	})
	return out, nil
}

// scanBackoff sleeps a jittered exponential delay before the next
// rescan pass (full jitter: uniform in (0, base·2^attempt], capped).
func (st *Store) scanBackoff(ctx context.Context, attempt int) error {
	d := scanBackoffBase << attempt
	if d > scanBackoffLimit || d <= 0 {
		d = scanBackoffLimit
	}
	st.rngMu.Lock()
	d = time.Duration(st.rng.Int63n(int64(d))) + 1
	st.rngMu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// collect runs one pass of per-shard confirmed reads and returns the
// nop-stripped views. The pass is parallel in production; on a
// deterministic transport (one that implements syncInjector, i.e.
// internal/faultnet) it reads shard by shard, so the transport only
// ever sees one outstanding client burst — the property that makes
// admission placement timing-independent (the double-collect
// consistency argument of DESIGN.md §5 never depended on intra-pass
// parallelism).
func (st *Store) collect(ctx context.Context) ([]lattice.Set, error) {
	st.scanPasses.Add(1)
	views := make([]lattice.Set, st.cfg.Shards)
	if _, inline := st.net.(syncInjector); inline {
		for s := range st.pipes {
			v, err := st.pipes[s].Read(ctx)
			if err != nil {
				return nil, err
			}
			views[s] = rsm.StripNops(v)
		}
		return views, nil
	}
	errs := make([]error, st.cfg.Shards)
	var wg sync.WaitGroup
	for s := range st.pipes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			v, err := st.pipes[s].Read(ctx)
			if err != nil {
				errs[s] = err
				return
			}
			views[s] = rsm.StripNops(v)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return views, nil
}

// StoreStats aggregates pipeline activity across shards plus the scan
// loop's rescan behaviour.
type StoreStats struct {
	// PerShard holds each shard's pipeline counters.
	PerShard []BatchStats
	// Total sums them.
	Total BatchStats
	// Scans counts ScanCtx calls; ScanPasses the per-shard read fan-outs
	// they ran (ScanPasses/Scans > 2 means writers forced rescans).
	Scans, ScanPasses uint64
	// ScanRetries counts rescan passes that lost the double-collect
	// race and backed off before retrying (sustained-write contention).
	ScanRetries uint64
}

// Stats snapshots the store's counters.
func (st *Store) Stats() StoreStats {
	out := StoreStats{
		Scans: st.scans.Load(), ScanPasses: st.scanPasses.Load(),
		ScanRetries: st.scanRetries.Load(),
	}
	for _, p := range st.pipes {
		bs := batchStatsOf(p)
		out.PerShard = append(out.PerShard, bs)
		out.Total.Ops += bs.Ops
		out.Total.Updates += bs.Updates
		out.Total.Reads += bs.Reads
		out.Total.Flights += bs.Flights
		out.Total.Timeouts += bs.Timeouts
		if bs.MaxBatchOps > out.Total.MaxBatchOps {
			out.Total.MaxBatchOps = bs.MaxBatchOps
		}
	}
	if out.Total.Flights > 0 {
		out.Total.AvgBatch = float64(out.Total.Ops) / float64(out.Total.Flights)
	}
	return out
}

// Metrics returns the registry backing the store's instruments (the
// configured ObsConfig.Registry, or the private one the zero config
// got). Per-shard series are labeled shard="<s>".
func (st *Store) Metrics() *obs.Registry { return st.cfg.Obs.Registry }

// LatencyStats merges the per-shard decision-latency histograms into
// one store-level snapshot.
func (st *Store) LatencyStats() obs.HistSnapshot {
	var out obs.HistSnapshot
	for _, p := range st.pipes {
		out.Merge(p.LatencySnapshot())
	}
	return out
}

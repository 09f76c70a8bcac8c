package bgla

import (
	"time"

	"bgla/internal/chanet"
	"bgla/internal/ident"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/wal"
)

// Transport is the injection point between the public stack and its
// network: the Service and Store drive any implementation of this
// surface. The default is the live goroutine network (internal/chanet);
// the deterministic fault-injection harness (internal/faultnet)
// implements the same surface, so the entire stack — batching
// pipelines, shard demuxes, checkpoint compaction, state transfer —
// runs unmodified under scripted and randomized fault schedules.
type Transport interface {
	// Start launches delivery (machine Start outputs included).
	Start()
	// Inject delivers a message from an external identity (the client
	// gateway, a shard pipeline). Safe for concurrent use.
	Inject(from, to ident.ProcessID, m msg.Msg)
	// Stop shuts delivery down and waits for quiescence of the
	// transport's own goroutines. Idempotent.
	Stop()
}

// syncInjector is an optional Transport capability: enqueue a message
// synchronously from within a machine Handle running on the
// transport's own delivery goroutine, preserving deterministic
// sequencing. A transport that implements it is deterministic: the
// Store then runs its shard demuxes inline and routes their sends
// through it, and reads a Scan's shards one by one (faultnet
// implements it; the live transports don't).
type syncInjector interface {
	InjectSync(from, to ident.ProcessID, m msg.Msg)
}

// TransportOptions carries the network knobs of a ServiceConfig to a
// custom transport constructor.
type TransportOptions struct {
	// Jitter is the configured random delivery delay bound.
	Jitter time.Duration
	// Seed drives the transport's randomness.
	Seed int64
}

// ServiceHooks are test-only fault-injection points (nil in
// production). They let the deterministic harness substitute the
// transport underneath an unmodified Service/Store and lift Byzantine
// adversaries or crash-restart wrappers (internal/byz,
// compact.Restartable) into full-stack replica slots.
type ServiceHooks struct {
	// NewTransport replaces the default chanet transport. The machine
	// list is the full cluster: the client gateway, then one machine
	// per replica process in ID order (its slot's replica at S = 1, its
	// shard.Demux otherwise).
	NewTransport func(machines []proto.Machine, opts TransportOptions) Transport

	// WrapReplica may wrap or replace the machine of replica slot
	// `replica` in shard `shard` (always 0 for an unsharded Service).
	// It receives the correct machine the stack built for the slot (or
	// its mute stand-in) and returns the machine to place on the
	// network; returning nil keeps the original. Replacing a slot with
	// an adversary counts it toward the fault bound f — the hook
	// bypasses the MuteReplicas validation, so scenarios are
	// responsible for staying within n >= 3f+1.
	WrapReplica func(shard, replica int, m proto.Machine) proto.Machine

	// Storage substitutes the filesystem and per-slot fault hooks
	// underneath the durable storage engine when DataDir is set — the
	// disk counterpart of NewTransport (internal/wal, DESIGN.md §8).
	Storage *StorageHooks
}

// StorageHooks is the storage fault seam: a replacement filesystem
// (wal.MemFS with its synced-byte power-loss model) and per-slot
// write/fsync interceptors for torn-write, bit-flip and partial-fsync
// injection at the record boundary.
type StorageHooks struct {
	// FS replaces the OS filesystem (nil keeps wal.OSFS).
	FS wal.FS
	// Hooks returns the fault hooks for one replica slot (nil for
	// none); called once per slot at construction.
	Hooks func(shard, replica int) *wal.Hooks
}

// storageFS resolves the filesystem the storage engine writes to.
func (cfg ServiceConfig) storageFS() wal.FS {
	if cfg.Hooks != nil && cfg.Hooks.Storage != nil && cfg.Hooks.Storage.FS != nil {
		return cfg.Hooks.Storage.FS
	}
	return wal.OSFS{}
}

// walOptions builds one replica slot's log options from the config.
func (cfg ServiceConfig) walOptions(shard, replica int) (wal.Options, error) {
	pol, err := wal.ParsePolicy(cfg.SyncMode)
	if err != nil {
		return wal.Options{}, err
	}
	opt := wal.Options{
		Policy: pol,
		Trace:  cfg.Obs.ConsensusTrace,
		Clock:  cfg.Obs.Clock,
		Shard:  shard,
		Proc:   ident.ProcessID(replica).String(),
	}
	if cfg.Hooks != nil && cfg.Hooks.Storage != nil && cfg.Hooks.Storage.Hooks != nil {
		opt.Hooks = cfg.Hooks.Storage.Hooks(shard, replica)
	}
	return opt, nil
}

// wrapReplica applies the WrapReplica hook for one slot.
func (cfg ServiceConfig) wrapReplica(shard, replica int, m proto.Machine) proto.Machine {
	if cfg.Hooks == nil || cfg.Hooks.WrapReplica == nil {
		return m
	}
	if w := cfg.Hooks.WrapReplica(shard, replica, m); w != nil {
		return w
	}
	return m
}

// newTransport builds the configured transport (default: chanet).
func (cfg ServiceConfig) newTransport(machines []proto.Machine) Transport {
	if cfg.Hooks != nil && cfg.Hooks.NewTransport != nil {
		return cfg.Hooks.NewTransport(machines, TransportOptions{Jitter: cfg.Jitter, Seed: cfg.Seed})
	}
	return chanet.New(machines, chanet.Options{MaxJitter: cfg.Jitter, Seed: cfg.Seed})
}

// Package wal is the per-replica durable storage engine: an
// append-only, length-prefixed, CRC-framed log of decided rounds plus
// a persisted checkpoint store, so a replica (or a whole cluster)
// restarted from local disk recovers its decided history without a
// live peer, replaying only O(window) records beyond the newest
// persisted checkpoint certificate (DESIGN.md §8).
//
// On-disk layout (one directory per replica, per shard):
//
//	seg-00000001.wal   append-only record segments, rotated by size
//	seg-00000002.wal   and on every checkpoint install
//	ckpt-000000000024.snap   checkpoint snapshots: one framed record
//	                         holding the certificate + full prefix
//
// Every record — in segments and snapshots alike — is framed as
// [len u32le][crc32c u32le][payload]; the payload is a version byte,
// a kind byte, varint fields and the value and certificate in the msg
// binary codec (record.go). A CRC-valid record with an unknown version
// makes Open fail with ErrFormat. A torn or bit-flipped suffix fails
// its CRC, is discarded, and the damaged tail is healed from peers via
// checkpoint state transfer; everything before the tear replays.
// Records carry plain (flattened) items, so replay is union-idempotent
// and needs no ordering or dedup logic.
//
// The fault seam mirrors the transport seam of internal/faultnet:
// Hooks intercepts writes at the record boundary (torn-write,
// bit-flip) and fsyncs (partial-fsync), and MemFS distinguishes
// synced from merely written bytes so a simulated power loss drops
// exactly the unsynced suffix — deterministically, under faultnet's
// scheduler.
package wal

import (
	"fmt"
	"sync"

	"bgla/internal/obs"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncGroup fsyncs after every GroupEvery appended records (group
	// commit — the default; a power loss may drop up to one group of
	// decided records, which recovery heals via peer state transfer).
	SyncGroup SyncPolicy = iota
	// SyncRecord fsyncs after every record: a decided command is on
	// disk before the append returns (strongest; slowest).
	SyncRecord
	// SyncOff never fsyncs segment appends (the OS page cache decides;
	// a process crash loses nothing, a power loss may lose the tail).
	SyncOff
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncRecord:
		return "record"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a ServiceConfig.SyncMode string to a policy
// ("" defaults to group commit).
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "record":
		return SyncRecord, nil
	case "off":
		return SyncOff, nil
	default:
		return SyncGroup, fmt.Errorf("wal: unknown sync mode %q (want record, group or off)", s)
	}
}

// Options configure one log.
type Options struct {
	// Policy is the fsync policy for segment appends.
	Policy SyncPolicy
	// GroupEvery is the SyncGroup commit interval in records (default 32).
	GroupEvery int
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 1 MiB).
	SegmentBytes int
	// KeepSnapshots bounds retained checkpoint snapshots (default 2:
	// the newest plus one fallback should the newest turn out torn).
	KeepSnapshots int
	// Hooks, when non-nil, inject storage faults (tests only).
	Hooks *Hooks
	// Trace, when non-nil, receives one obs.EvWalSync consensus trace
	// event per fsync decision (effective and hook-dropped alike),
	// timestamped by Clock and labeled Shard/Proc (DESIGN.md §9).
	Trace *obs.Tracer
	// Clock timestamps trace events (nil = obs.WallClock).
	Clock obs.Clock
	// Shard and Proc label trace events with the owning shard and
	// replica identity.
	Shard int
	Proc  string
}

func (o Options) withDefaults() Options {
	if o.GroupEvery <= 0 {
		o.GroupEvery = 32
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.KeepSnapshots <= 0 {
		o.KeepSnapshots = 2
	}
	if o.Clock == nil {
		o.Clock = obs.WallClock
	}
	return o
}

// Hooks is the storage fault seam, the disk counterpart of the
// transport seam (bgla.ServiceHooks.NewTransport): deterministic
// tests intercept every framed record on its way to the file and
// every fsync decision. The zero value injects nothing. Arm/disarm
// only at quiesced points; the accessors are mutex-guarded so the
// race detector stays quiet across the test/driver goroutine pair.
type Hooks struct {
	mu          sync.Mutex
	writeRecord func(kind string, frame []byte) []byte
	dropSync    func() bool
}

// SetWriteRecord installs an interceptor for framed records (segment
// appends and snapshot writes alike). It receives the record kind and
// the full frame and returns the bytes actually written: return a
// prefix for a torn write, flip bits for media corruption, or the
// frame unchanged to pass through. nil disarms.
func (h *Hooks) SetWriteRecord(fn func(kind string, frame []byte) []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.writeRecord = fn
}

// SetDropSync installs a partial-fsync injector: when it returns true
// the log believes the sync happened but the bytes stay unsynced, so
// a subsequent simulated power loss (MemFS.Crash) drops them. nil
// disarms.
func (h *Hooks) SetDropSync(fn func() bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropSync = fn
}

// apply runs the write interceptor.
func (h *Hooks) apply(kind string, frame []byte) []byte {
	if h == nil {
		return frame
	}
	h.mu.Lock()
	fn := h.writeRecord
	h.mu.Unlock()
	if fn == nil {
		return frame
	}
	return fn(kind, frame)
}

// drop reports whether the next sync should be suppressed.
func (h *Hooks) drop() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	fn := h.dropSync
	h.mu.Unlock()
	return fn != nil && fn()
}

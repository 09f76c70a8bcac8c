package wal

import (
	"fmt"
	"path"
	"sync/atomic"

	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
)

// Log is one replica's durable storage engine: an append-only
// segmented record log plus a snapshot store for installed checkpoint
// certificates. All mutating methods must be called from the owning
// machine's driver goroutine (the proto.Machine discipline); Stats is
// safe from anywhere.
type Log struct {
	fs    FS
	dir   string
	opt   Options
	hooks *Hooks

	cur     File
	curName string
	curSize int
	seq     int // sequence of the active segment
	pending int // records appended since the last sync (SyncGroup)

	// prevCkptSeg is the segment opened by the previous checkpoint
	// generation (the open itself counts as one): segments before it
	// are covered twice over — by the previous snapshot plus its
	// window record — and are pruned at the next checkpoint. Keeping
	// exactly one generation is what makes the damaged-newest-snapshot
	// fallback lossless.
	prevCkptSeg int

	broken error

	nRecords, nBytes, nSyncs, nSyncsDropped atomic.Int64
	nRotations, nSnapshots, nPruned         atomic.Int64
	nErrors                                 atomic.Int64

	recRecords, recItems, recDiscarded atomic.Int64
	recTorn                            atomic.Int64
}

// Stats is a point-in-time snapshot of a log's counters.
type Stats struct {
	// Records / Bytes count framed records appended (segments and
	// snapshots); Syncs the fsyncs issued; SyncsDropped the ones a
	// fault hook suppressed.
	Records, Bytes, Syncs, SyncsDropped int64
	// Rotations counts segment rolls; Snapshots checkpoint snapshots
	// written; Pruned segment+snapshot files deleted as covered.
	Rotations, Snapshots, Pruned int64
	// Errors counts write-path failures (the log wedges on the first).
	Errors int64
	// RecoveredRecords / RecoveredItems / RecoveredDiscarded / TornTail
	// describe what Open found on disk.
	RecoveredRecords, RecoveredItems, RecoveredDiscarded int64
	TornTail                                             bool
}

// Open recovers whatever the directory holds, heals any torn tail,
// starts a fresh active segment seeded with a compact "recovery
// window" record (decided beyond the recovered base), and prunes
// files the fresh segment makes redundant. It returns the log plus
// the recovered state for machine rehydration.
func Open(fs FS, dir string, opt Options) (*Log, *Recovered, error) {
	opt = opt.withDefaults()
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	rec, inv, err := scan(fs, dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{fs: fs, dir: dir, opt: opt, hooks: opt.Hooks}
	l.recRecords.Store(int64(rec.Records))
	l.recItems.Store(int64(rec.Decided().Len()))
	l.recDiscarded.Store(rec.Discarded)
	if rec.TornTail {
		l.recTorn.Store(1)
	}
	if err := l.openSegment(inv.maxSeq + 1); err != nil {
		return nil, nil, err
	}
	l.prevCkptSeg = l.seq
	if !rec.Empty() {
		// Seed the fresh segment with everything decided beyond the
		// recovered base: from here on this one segment (plus the
		// snapshot) is a complete copy, so older segments become
		// prunable — recovery doubles as compaction.
		window := lattice.FromItems(rec.Decided().Minus(rec.Base)...)
		r := record{T: recDecided, Round: rec.Round, SafeR: rec.SafeR, Len: rec.Decided().Len(), Value: window}
		if err := l.append(r, true); err != nil {
			return nil, nil, err
		}
	}
	if !inv.fellBack {
		// The newest snapshot verified intact (and snapshots are fully
		// synced before their rename publishes them), so the fresh
		// segment + that snapshot cover every older segment.
		for _, seq := range inv.segSeqs {
			l.removeCovered(segName(seq))
		}
		l.pruneSnapshots(inv.snapLens)
	}
	if err := fs.SyncDir(dir); err != nil {
		l.fail(err)
	}
	return l, rec, nil
}

// openSegment seals the active segment (if any) and starts seq.
func (l *Log) openSegment(seq int) error {
	if l.cur != nil {
		if err := l.sync(); err != nil {
			return err
		}
		if err := l.cur.Close(); err != nil {
			return err
		}
		l.nRotations.Add(1)
	}
	name := path.Join(l.dir, segName(seq))
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	l.cur, l.curName, l.curSize, l.seq, l.pending = f, name, 0, seq, 0
	return nil
}

// fail wedges the log: durability can no longer be promised, so every
// later append reports the original error (callers surface it; the
// in-memory protocol machine keeps running).
func (l *Log) fail(err error) error {
	if l.broken == nil {
		l.broken = err
	}
	l.nErrors.Add(1)
	return l.broken
}

// append frames, intercepts (fault hooks), writes and — per policy —
// syncs one record, rotating the segment when it outgrows the limit.
func (l *Log) append(r record, forceSync bool) error {
	if l.broken != nil {
		return l.broken
	}
	frame, err := encodeRecord(r)
	if err != nil {
		return l.fail(err)
	}
	frame = l.hooks.apply(r.T, frame)
	n, err := l.cur.Write(frame)
	if err != nil {
		return l.fail(err)
	}
	l.curSize += n
	l.nRecords.Add(1)
	l.nBytes.Add(int64(n))
	l.pending++
	switch {
	case forceSync || l.opt.Policy == SyncRecord:
		if err := l.sync(); err != nil {
			return err
		}
	case l.opt.Policy == SyncGroup && l.pending >= l.opt.GroupEvery:
		if err := l.sync(); err != nil {
			return err
		}
	}
	if l.curSize >= l.opt.SegmentBytes {
		if err := l.openSegment(l.seq + 1); err != nil {
			return l.fail(err)
		}
		if err := l.fs.SyncDir(l.dir); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// sync flushes the active segment (honoring the partial-fsync hook:
// a dropped sync still resets the group counter — the log *believes*
// it synced, which is the fault being modeled).
func (l *Log) sync() error {
	if l.pending == 0 || l.opt.Policy == SyncOff {
		l.pending = 0
		return nil
	}
	n := l.pending
	l.pending = 0
	if l.hooks.drop() {
		l.nSyncsDropped.Add(1)
		l.traceSync("dropped", n)
		return nil
	}
	if err := l.cur.Sync(); err != nil {
		return l.fail(err)
	}
	l.nSyncs.Add(1)
	l.traceSync("", n)
	return nil
}

// traceSync emits one wal_sync consensus trace event (DESIGN.md §9);
// no-op without a Tracer. Called from the owning driver goroutine, so
// under faultnet the emission order — and hence the trace bytes — is
// deterministic.
func (l *Log) traceSync(key string, pending int) {
	if l.opt.Trace == nil {
		return
	}
	l.opt.Trace.Emit(obs.Event{
		T:      l.opt.Clock.Now(),
		Kind:   obs.EvWalSync,
		Shard:  l.opt.Shard,
		Proc:   l.opt.Proc,
		Round:  l.seq,
		Key:    key,
		Detail: fmt.Sprintf("n=%d", pending),
	})
}

// AppendDecided logs one decided round's delta beyond what is already
// logged, the acceptor's Safe_r at that moment, and the cumulative
// decided length.
func (l *Log) AppendDecided(round, safeR, cumLen int, delta lattice.Set) error {
	return l.append(record{T: recDecided, Round: round, SafeR: safeR, Len: cumLen, Value: delta}, false)
}

// SaveCheckpoint persists an installed checkpoint certificate: the
// full certified prefix goes to a snapshot file (write-tmp, sync,
// rename, dir-sync — torn writes leave the previous snapshot intact),
// a marker record seals the active segment, and a fresh segment opens
// with the current window beyond the new base, after which segments
// older than one checkpoint generation are pruned. window must be
// everything logged beyond value.
func (l *Log) SaveCheckpoint(cert msg.CkptCert, value, window lattice.Set) error {
	if l.broken != nil {
		return l.broken
	}
	// 1. Snapshot: the self-contained, self-verifying recovery anchor.
	snap := record{T: recSnap, Round: cert.Round, Len: cert.Len, Value: value, Cert: cert}
	frame, err := encodeRecord(snap)
	if err != nil {
		return l.fail(err)
	}
	frame = l.hooks.apply(recSnap, frame)
	final := path.Join(l.dir, snapName(cert.Len))
	tmp := final + tmpSuffix
	f, err := l.fs.Create(tmp)
	if err != nil {
		return l.fail(err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return l.fail(err)
	}
	if l.hooks.drop() {
		l.nSyncsDropped.Add(1)
	} else if err := f.Sync(); err != nil {
		f.Close()
		return l.fail(err)
	} else {
		l.nSyncs.Add(1)
	}
	if err := f.Close(); err != nil {
		return l.fail(err)
	}
	if err := l.fs.Rename(tmp, final); err != nil {
		return l.fail(err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(err)
	}
	l.nSnapshots.Add(1)
	l.nRecords.Add(1)
	l.nBytes.Add(int64(len(frame)))

	// 2. Seal the old generation: marker record + forced sync.
	if err := l.append(record{T: recCkpt, Len: cert.Len, Cert: cert}, true); err != nil {
		return err
	}
	prevGen := l.prevCkptSeg
	if err := l.openSegment(l.seq + 1); err != nil {
		return l.fail(err)
	}
	l.prevCkptSeg = l.seq

	// 3. New generation: the window beyond the new base, synced before
	// anything older is pruned (written even when empty — it anchors
	// the generation).
	if err := l.append(record{T: recDecided, Round: cert.Round, Len: cert.Len + window.Len(), Value: window}, true); err != nil {
		return err
	}

	// 4. Prune: segments before the previous generation are covered by
	// two successive (snapshot, window) pairs; snapshots beyond the
	// retention bound go too.
	names, err := l.fs.List(l.dir)
	if err != nil {
		return l.fail(err)
	}
	var snapLens []int
	for _, name := range names {
		if seq, ok := parseSeg(name); ok && seq < prevGen {
			l.removeCovered(name)
		}
		if n, ok := parseSnap(name); ok {
			snapLens = append(snapLens, n)
		}
	}
	l.pruneSnapshots(snapLens)
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(err)
	}
	return nil
}

// pruneSnapshots keeps the KeepSnapshots newest snapshot files
// (lens ascending).
func (l *Log) pruneSnapshots(lens []int) {
	for i := 0; i+l.opt.KeepSnapshots < len(lens); i++ {
		l.removeCovered(snapName(lens[i]))
	}
}

// removeCovered deletes one redundant file (best effort: a leftover
// costs space, not correctness — recovery unions are idempotent).
func (l *Log) removeCovered(name string) {
	if err := l.fs.Remove(path.Join(l.dir, name)); err == nil {
		l.nPruned.Add(1)
	}
}

// Close flushes and closes the active segment.
func (l *Log) Close() error {
	if l.cur == nil {
		return l.broken
	}
	err := l.sync()
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// SegmentSeq returns the active segment's sequence number.
func (l *Log) SegmentSeq() int { return l.seq }

// Stats snapshots the counters (safe from any goroutine).
func (l *Log) Stats() Stats {
	return Stats{
		Records: l.nRecords.Load(), Bytes: l.nBytes.Load(),
		Syncs: l.nSyncs.Load(), SyncsDropped: l.nSyncsDropped.Load(),
		Rotations: l.nRotations.Load(), Snapshots: l.nSnapshots.Load(),
		Pruned: l.nPruned.Load(), Errors: l.nErrors.Load(),
		RecoveredRecords: l.recRecords.Load(), RecoveredItems: l.recItems.Load(),
		RecoveredDiscarded: l.recDiscarded.Load(), TornTail: l.recTorn.Load() != 0,
	}
}

// ReplicaDir is the canonical per-replica data directory layout used
// by bgla.ServiceConfig.DataDir: root/shard-<s>/replica-<i> (an
// unsharded Service is shard 0).
func ReplicaDir(root string, shard, replica int) string {
	return path.Join(root, fmt.Sprintf("shard-%d", shard), fmt.Sprintf("replica-%d", replica))
}

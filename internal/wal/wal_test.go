package wal

import (
	"path"
	"testing"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
)

func item(i int) lattice.Item {
	return lattice.Item{Author: ident.ProcessID(1), Body: "cmd-" + string(rune('a'+i/26)) + string(rune('a'+i%26))}
}

func items(n int) []lattice.Item {
	out := make([]lattice.Item, n)
	for i := range out {
		out[i] = item(i)
	}
	return out
}

func certFor(v lattice.Set, round int) msg.CkptCert {
	return msg.CkptCert{Round: round, Len: v.Len(), Dig: v.Digest()}
}

func mustOpen(t *testing.T, fs FS, dir string, opt Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(fs, dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func segFiles(t *testing.T, fs FS, dir string) (segs, snaps []string) {
	t.Helper()
	names, err := fs.List(dir)
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, n := range names {
		if _, ok := parseSeg(n); ok {
			segs = append(segs, n)
		}
		if _, ok := parseSnap(n); ok {
			snaps = append(snaps, n)
		}
	}
	return segs, snaps
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncGroup, "group": SyncGroup, "record": SyncRecord, "off": SyncOff} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("fsync-maybe"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

func TestFrameRoundtrip(t *testing.T) {
	v := lattice.FromItems(items(5)...)
	var buf []byte
	for i := 0; i < 3; i++ {
		frame, err := encodeRecord(record{T: recDecided, Round: i, SafeR: i, Len: v.Len(), Value: v})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		buf = append(buf, frame...)
	}
	recs, good, err := decodeAll(buf)
	if err != nil || good != len(buf) || len(recs) != 3 {
		t.Fatalf("decodeAll = %d recs, good %d/%d, err %v", len(recs), good, len(buf), err)
	}
	for i, r := range recs {
		if r.Round != i || !r.Value.Equal(v) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

func TestOpenFreshAppendReopen(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	all := lattice.Empty()
	for i := 0; i < 8; i++ {
		d := lattice.Singleton(item(i))
		all = all.Union(d)
		if err := l.AppendDecided(i, i, all.Len(), d); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2 := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l2.Close()
	if !rec2.Decided().Equal(all) {
		t.Fatalf("recovered %v, want %v", rec2.Decided(), all)
	}
	if rec2.Round != 7 || rec2.SafeR != 7 {
		t.Fatalf("recovered frontier round=%d safeR=%d, want 7/7", rec2.Round, rec2.SafeR)
	}
	if rec2.TornTail {
		t.Fatal("clean log reported a torn tail")
	}
}

func TestRecoveryIsCompaction(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	for i := 0; i < 4; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	l.Close()

	// Each reopen folds the recovered state into one fresh segment and
	// prunes everything older.
	for gen := 0; gen < 3; gen++ {
		l, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
		if rec.Decided().Len() != 4 {
			t.Fatalf("gen %d recovered %d items, want 4", gen, rec.Decided().Len())
		}
		l.Close()
		segs, _ := segFiles(t, fs, dir)
		if len(segs) != 1 {
			t.Fatalf("gen %d: %d segments after reopen, want 1 (%v)", gen, len(segs), segs)
		}
	}
}

func TestTornTailHealed(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	for i := 0; i < 6; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	name := path.Join(l.Dir(), segName(l.SegmentSeq()))
	l.Close()

	if _, err := fs.Tear(name, 5); err != nil { // mid-frame: last record torn
		t.Fatalf("tear: %v", err)
	}
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	if !rec.TornTail || rec.Discarded == 0 {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if rec.Decided().Len() != 5 {
		t.Fatalf("recovered %d items, want 5 (valid prefix)", rec.Decided().Len())
	}
	l2.Close()

	// The damaged suffix was truncated away: the next open is clean.
	l3, rec3 := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l3.Close()
	if rec3.TornTail {
		t.Fatal("tail not healed on second open")
	}
	if rec3.Decided().Len() != 5 {
		t.Fatalf("healed log lost items: %d, want 5", rec3.Decided().Len())
	}
}

func TestBitFlipDiscardsSuffix(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	for i := 0; i < 6; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	name := path.Join(l.Dir(), segName(l.SegmentSeq()))
	l.Close()

	// Flip one payload bit near the end: CRC catches it, the records
	// before the flipped frame survive.
	if err := fs.Corrupt(name, -3, 0x40); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l2.Close()
	if !rec.TornTail {
		t.Fatal("bit flip not detected")
	}
	if got := rec.Decided().Len(); got != 5 {
		t.Fatalf("recovered %d items, want 5", got)
	}
}

func TestPowerLossDropsUnsyncedGroup(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncGroup, GroupEvery: 4})
	for i := 0; i < 6; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Power loss without Close: only the first synced group survives.
	fs.Crash("", true)
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncGroup, GroupEvery: 4})
	defer l2.Close()
	if got := rec.Decided().Len(); got != 4 {
		t.Fatalf("power loss recovered %d items, want 4 (one synced group)", got)
	}

	// Same schedule under SyncRecord loses nothing.
	fs2 := NewMemFS()
	l3, _ := mustOpen(t, fs2, dir, Options{Policy: SyncRecord})
	for i := 0; i < 6; i++ {
		if err := l3.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	fs2.Crash("", true)
	l4, rec4 := mustOpen(t, fs2, dir, Options{Policy: SyncRecord})
	defer l4.Close()
	if got := rec4.Decided().Len(); got != 6 {
		t.Fatalf("SyncRecord power loss recovered %d items, want 6", got)
	}
}

func TestProcessCrashKeepsUnsynced(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncOff})
	for i := 0; i < 6; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Process crash (page cache survives): nothing is lost even with
	// fsync off.
	fs.Crash("", false)
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncOff})
	defer l2.Close()
	if got := rec.Decided().Len(); got != 6 {
		t.Fatalf("process crash recovered %d items, want 6", got)
	}
}

func TestCheckpointSnapshotRotatePrune(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	all := lattice.Empty()
	for i := 0; i < 10; i++ {
		d := lattice.Singleton(item(i))
		all = all.Union(d)
		if err := l.AppendDecided(i, i, all.Len(), d); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	base := lattice.FromItems(items(10)...)
	if err := l.SaveCheckpoint(certFor(base, 9), base, lattice.Empty()); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	// Window beyond the checkpoint.
	tail := lattice.Empty()
	for i := 10; i < 14; i++ {
		d := lattice.Singleton(item(i))
		tail = tail.Union(d)
		if err := l.AppendDecided(i, i, 10+tail.Len(), d); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := l.Stats(); st.Snapshots != 1 || st.Rotations == 0 {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	l.Close()

	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l2.Close()
	if !rec.HasCkpt || rec.Cert.Len != 10 {
		t.Fatalf("checkpoint not recovered: %+v", rec)
	}
	if !rec.Base.Equal(base) {
		t.Fatalf("recovered base %v, want %v", rec.Base, base)
	}
	if !rec.Decided().Equal(base.Union(tail)) {
		t.Fatalf("recovered decided %v, want %v", rec.Decided(), base.Union(tail))
	}
	if rec.SafeR != 13 {
		t.Fatalf("recovered SafeR %d, want 13", rec.SafeR)
	}
}

func TestSecondCheckpointPrunesFirstGeneration(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord, KeepSnapshots: 2})
	all := lattice.Empty()
	ckpt := func(round int) {
		base := all.Flatten()
		if err := l.SaveCheckpoint(certFor(base, round), base, lattice.Empty()); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		all = all.Union(lattice.Singleton(item(i)))
		if err := l.AppendDecided(i, i, all.Len(), lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	ckpt(3)
	for i := 4; i < 8; i++ {
		all = all.Union(lattice.Singleton(item(i)))
		if err := l.AppendDecided(i, i, all.Len(), lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	ckpt(7)
	segs, snaps := segFiles(t, fs, dir)
	if len(snaps) != 2 {
		t.Fatalf("snapshots kept: %v, want 2", snaps)
	}
	// Segments from before the previous checkpoint generation are gone.
	if st := l.Stats(); st.Pruned == 0 {
		t.Fatalf("nothing pruned after two checkpoints (segs %v)", segs)
	}
	l.Close()

	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord, KeepSnapshots: 2})
	defer l2.Close()
	if !rec.Decided().Equal(all.Flatten()) {
		t.Fatalf("recovered %v, want %v", rec.Decided(), all)
	}
}

func TestDamagedNewestSnapshotFallsBack(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord, KeepSnapshots: 2})
	all := lattice.Empty()
	add := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			all = all.Union(lattice.Singleton(item(i)))
			if err := l.AppendDecided(i, i, all.Len(), lattice.Singleton(item(i))); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
	}
	add(0, 4)
	b1 := all.Flatten()
	if err := l.SaveCheckpoint(certFor(b1, 3), b1, lattice.Empty()); err != nil {
		t.Fatalf("ckpt1: %v", err)
	}
	add(4, 8)
	b2 := all.Flatten()
	if err := l.SaveCheckpoint(certFor(b2, 7), b2, lattice.Empty()); err != nil {
		t.Fatalf("ckpt2: %v", err)
	}
	add(8, 10)
	l.Close()

	// Flip a bit in the newest snapshot: recovery must fall back to the
	// older one and still reconstruct everything — the previous
	// checkpoint generation's segments bridge the gap.
	if err := fs.Corrupt(path.Join(dir, snapName(8)), 20, 0x01); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord, KeepSnapshots: 2})
	defer l2.Close()
	if !rec.HasCkpt || rec.Cert.Len != 4 {
		t.Fatalf("fallback snapshot not used: %+v", rec.Cert)
	}
	if !rec.Decided().Equal(all.Flatten()) {
		t.Fatalf("fallback lost state: got %d items, want %d", rec.Decided().Len(), all.Len())
	}
	if !rec.TornTail {
		t.Fatal("damaged snapshot not reported")
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord, SegmentBytes: 256})
	all := lattice.Empty()
	for i := 0; i < 20; i++ {
		all = all.Union(lattice.Singleton(item(i)))
		if err := l.AppendDecided(i, i, all.Len(), lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("no rotations with 256-byte segments")
	}
	segs, _ := segFiles(t, fs, dir)
	if len(segs) < 2 {
		t.Fatalf("segments on disk: %v, want several", segs)
	}
	l.Close()
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord, SegmentBytes: 256})
	defer l2.Close()
	if !rec.Decided().Equal(all) {
		t.Fatalf("multi-segment recovery lost state: %d items, want %d", rec.Decided().Len(), all.Len())
	}
}

func TestHookTornWrite(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	hooks := &Hooks{}
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord, Hooks: hooks})
	for i := 0; i < 3; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// The next record tears at the boundary: half the frame reaches the
	// file.
	hooks.SetWriteRecord(func(kind string, frame []byte) []byte { return frame[:len(frame)/2] })
	if err := l.AppendDecided(3, 3, 4, lattice.Singleton(item(3))); err != nil {
		t.Fatalf("append: %v", err)
	}
	hooks.SetWriteRecord(nil)
	l.Close()

	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l2.Close()
	if !rec.TornTail {
		t.Fatal("torn write not detected")
	}
	if got := rec.Decided().Len(); got != 3 {
		t.Fatalf("recovered %d items, want 3", got)
	}
}

func TestHookDropSync(t *testing.T) {
	fs := NewMemFS()
	dir := "data/r0"
	hooks := &Hooks{}
	hooks.SetDropSync(func() bool { return true })
	l, _ := mustOpen(t, fs, dir, Options{Policy: SyncRecord, Hooks: hooks})
	for i := 0; i < 5; i++ {
		if err := l.AppendDecided(i, i, i+1, lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := l.Stats(); st.SyncsDropped == 0 {
		t.Fatalf("no dropped syncs recorded: %+v", st)
	}
	// The log believed every record synced; the power loss proves it
	// wrong.
	fs.Crash("", true)
	l2, rec := mustOpen(t, fs, dir, Options{Policy: SyncRecord})
	defer l2.Close()
	if got := rec.Decided().Len(); got != 0 {
		t.Fatalf("partial-fsync power loss kept %d items, want 0", got)
	}
}

func TestOSFSFullCycle(t *testing.T) {
	dir := path.Join(t.TempDir(), "r0")
	fs := OSFS{}
	l, rec := mustOpen(t, fs, dir, Options{Policy: SyncGroup, GroupEvery: 2})
	if !rec.Empty() {
		t.Fatalf("fresh tempdir not empty: %+v", rec)
	}
	all := lattice.Empty()
	for i := 0; i < 6; i++ {
		all = all.Union(lattice.Singleton(item(i)))
		if err := l.AppendDecided(i, i, all.Len(), lattice.Singleton(item(i))); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	base := all.Flatten()
	if err := l.SaveCheckpoint(certFor(base, 5), base, lattice.Empty()); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	all = all.Union(lattice.Singleton(item(6)))
	if err := l.AppendDecided(6, 6, all.Len(), lattice.Singleton(item(6))); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2 := mustOpen(t, fs, dir, Options{})
	defer l2.Close()
	if !rec2.HasCkpt || !rec2.Decided().Equal(all) {
		t.Fatalf("OSFS recovery: ckpt=%v decided=%d items, want 7", rec2.HasCkpt, rec2.Decided().Len())
	}
}

func TestReplicaDir(t *testing.T) {
	if got := ReplicaDir("data", 2, 3); got != "data/shard-2/replica-3" {
		t.Fatalf("ReplicaDir = %q", got)
	}
}

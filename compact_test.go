package bgla

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/msg"
)

// TestServiceCompaction runs a live RSM with checkpointing enabled and
// one mute Byzantine replica: updates and reads must keep their
// Algorithm 5/6 semantics across checkpoint boundaries, and the
// replicas must actually fold history into certified bases.
func TestServiceCompaction(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		Replicas: 4, Faulty: 1, MuteReplicas: []int{3}, Seed: 3,
		MaxBatch: 16, MaxInFlight: 4,
		CheckpointEvery: 48,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const writers, perWriter = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := svc.Update(AddCmd(fmt.Sprintf("e-%d-%d", w, k))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	state, err := svc.Read()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(SetView(state)), writers*perWriter; got != want {
		t.Fatalf("read %d set elements, want %d", got, want)
	}
	st := svc.CompactionStats()
	if st.Installs == 0 || st.CertsBuilt == 0 || st.MaxBaseLen < 48 {
		t.Fatalf("no compaction happened under load: %+v", st)
	}
	if st.MaxEpoch == 0 {
		t.Fatalf("epoch never advanced: %+v", st)
	}
}

// TestServiceCompactionBytesOnly is the regression test for the
// byte-denominated trigger: it must fire before any checkpoint exists
// (when the decided set is still flat, not base-anchored).
func TestServiceCompactionBytesOnly(t *testing.T) {
	svc, err := NewService(ServiceConfig{
		Replicas: 4, Faulty: 1, Seed: 3, MaxBatch: 16,
		CheckpointBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				_ = svc.Update(AddCmd(fmt.Sprintf("bytes-%d-%d-padding-padding-padding", w, k)))
			}
		}(w)
	}
	wg.Wait()
	if st := svc.CompactionStats(); st.Installs == 0 {
		t.Fatalf("bytes-only compaction trigger never fired: %+v", st)
	}
}

// TestStoreCompactionScan verifies the cross-shard Scan total-order
// machinery across compaction boundaries: per-shard checkpoints must
// not perturb the double-collect digest comparison or lose commands.
func TestStoreCompactionScan(t *testing.T) {
	st, err := NewStore(ShardedConfig{
		Shards: 2,
		ServiceConfig: ServiceConfig{
			Replicas: 4, Faulty: 1, Seed: 5,
			MaxBatch: 16, MaxInFlight: 4,
			CheckpointEvery: 64,
		},
		ShardMutes: [][]int{{0}, {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const writers, perWriter = 16, 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWriter; k++ {
				if err := st.Update(AddCmd(fmt.Sprintf("e-%d-%d", w, k))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	state, err := st.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(SetView(state)), writers*perWriter; got != want {
		t.Fatalf("scan found %d elements, want %d", got, want)
	}
	cs := st.CompactionStats()
	if cs.Installs == 0 {
		t.Fatalf("sharded store never checkpointed: %+v", cs)
	}
	stats := st.Stats()
	if stats.Scans == 0 {
		t.Fatal("scan counter not incremented")
	}
}

// TestCrashMidCheckpointRejoins covers the narrowest restart window of
// the checkpoint protocol: a replica dies *between* countersigning a
// checkpoint proposal and installing the assembled certificate. The
// deterministic harness's delivery trigger crashes the victim at the
// exact delivery of its own countersignature — its signature then
// participates in a certificate the victim itself never saw. After a
// restart from empty, the victim must reach the current view through
// verified state transfer, and every invariant must hold.
func TestCrashMidCheckpointRejoins(t *testing.T) {
	seed := int64(5)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	const every = 16
	var old *gwts.Machine
	sc := scenarioConfig{
		replicas: 4, faulty: 1, ckptEvery: every,
		restartable: [][2]int{{0, 3}},
		sched: func(h *harness) *faultnet.Schedule {
			old = h.reps[0][3]
			s := &faultnet.Schedule{}
			s.On("crash-between-sign-and-install",
				func(from, to ident.ProcessID, m msg.Msg) bool {
					_, isSig := m.(msg.CkptSig)
					return isSig && from == 3
				},
				func(api faultnet.ActionAPI) { h.wrappers[0][3].Crash() })
			return s
		},
	}
	h := launch(t, seed, sc)
	// Phase 1: drive past the first checkpoint threshold; the trigger
	// kills p3 the moment its countersignature reaches the initiator.
	for k := 0; k < 24; k++ {
		h.update(AddCmd(fmt.Sprintf("mid-pre-%02d", k)))
		h.quiesce()
	}
	ost := old.CompactionStats()
	if ost.SigsIssued < 1 {
		t.Fatalf("seed %d: victim never countersigned — trigger cannot have fired", seed)
	}
	if ost.Installs != 0 {
		t.Fatalf("seed %d: victim installed a certificate before dying (%+v) — crash missed the window", seed, ost)
	}
	// Phase 2: the surviving three keep deciding and checkpointing.
	for k := 0; k < 24; k++ {
		h.update(AddCmd(fmt.Sprintf("mid-down-%02d", k)))
	}
	h.quiesce()
	// Phase 3: restart from empty; the missed disclosures are gone for
	// good, so only state transfer can cover them.
	fresh := h.restart(0, 3)
	for k := 0; k < 24; k++ {
		h.update(AddCmd(fmt.Sprintf("mid-post-%02d", k)))
	}
	h.quiesce()
	fst := fresh.CompactionStats()
	if fst.TransfersReceived < 1 {
		t.Fatalf("seed %d: restarted victim never caught up via state transfer: %+v", seed, fst)
	}
	if fst.BaseLen < every {
		t.Fatalf("seed %d: restarted victim's certified base (%d) too shallow", seed, fst.BaseLen)
	}
	h.finish()
	h.assertClean()
	if d := fresh.Decided().Len(); d < 48 {
		t.Fatalf("seed %d: rejoined victim decided only %d/72 commands", seed, d)
	}
}

// TestSnapshotSeqBounded is the regression test for the unbounded
// per-writer component-stamp map: distinct component names beyond
// snapshotSeqCap must be evicted, not retained forever.
func TestSnapshotSeqBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes >1024 distinct components")
	}
	snap, err := NewSnapshot(ServiceConfig{
		Replicas: 4, Faulty: 1, Seed: 9,
		MaxBatch: 128, MaxInFlight: 8, CheckpointEvery: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	const writers = 32
	total := snapshotSeqCap + 128
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < total; k += writers {
				if err := snap.Update(fmt.Sprintf("comp-%04d", k), "v"); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The diagnostic map must be bounded...
	var comps, stamps int
	if _, err := fmt.Sscanf(snap.String(), "bgla.Snapshot{writes: %d components, %d stamps}", &comps, &stamps); err != nil {
		t.Fatalf("parsing %q: %v", snap.String(), err)
	}
	if comps > snapshotSeqCap {
		t.Fatalf("component map grew past the cap: %d > %d", comps, snapshotSeqCap)
	}
	if stamps != total {
		t.Fatalf("stamp counter %d, want %d", stamps, total)
	}
	// ...while the replicated state keeps every component.
	view, err := snap.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != total {
		t.Fatalf("snapshot lost components: %d != %d", len(view), total)
	}
}

// TestScanContendedSurfaceable pins the ErrScanContended contract: the
// error must be recognizable so callers can retry.
func TestScanContendedSurfaceable(t *testing.T) {
	if !strings.Contains(ErrScanContended.Error(), "scan contended") {
		t.Fatal("ErrScanContended must be self-describing")
	}
}

// TestServiceCompactionLatencyFlat is a miniature of E18's claim: with
// checkpointing on, late-history update rounds must not be drastically
// slower than early ones. Kept deliberately loose (10x) for CI noise —
// E18 measures the 1.5x bound properly.
func TestServiceCompactionLatencyFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive live benchmark sketch")
	}
	svc, err := NewService(ServiceConfig{
		Replicas: 4, Faulty: 1, Seed: 11,
		MaxBatch: 32, MinBatch: 32, MaxInFlight: 1,
		MaxBatchDelay:   10 * time.Millisecond,
		CheckpointEvery: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	wave := func(n, base int) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for k := 0; k < n; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				_ = svc.Update(AddCmd(fmt.Sprintf("w-%d-%d", base, k)))
			}(k)
		}
		wg.Wait()
		return time.Since(start)
	}
	early := wave(32, 0)
	for i := 1; i < 30; i++ {
		wave(32, i)
	}
	late := wave(32, 30)
	if late > 10*early+50*time.Millisecond {
		t.Fatalf("late wave %v way beyond early wave %v despite compaction", late, early)
	}
	if st := svc.CompactionStats(); st.Installs == 0 {
		t.Fatalf("no checkpoints during the latency run: %+v", st)
	}
}

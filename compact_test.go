package bgla

import (
	"fmt"
	"strings"
	"sync"
	"testing"

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
	reg := svc.Metrics()
	installs, certs := sampleCounter(t, reg, "bgla_ckpt_installs_total"), sampleCounter(t, reg, "bgla_ckpt_certs_total")
	if base := sampleGauge(t, reg, "bgla_ckpt_base_len"); installs == 0 || certs == 0 || base < 48 {
		t.Fatalf("no compaction happened under load: %d installs, %d certs, max base %d", installs, certs, base)
	}
	if sampleGauge(t, reg, "bgla_ckpt_epoch") == 0 {
		t.Fatal("epoch never advanced")
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
	if sampleCounter(t, svc.Metrics(), "bgla_ckpt_installs_total") == 0 {
		t.Fatal("bytes-only compaction trigger never fired")
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
	if sampleCounter(t, st.Metrics(), "bgla_ckpt_installs_total") == 0 {
		t.Fatal("sharded store never checkpointed")
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

// TestSnapshotSeqBounded writes more than a thousand distinct
// components from concurrent writers: the writer side issues exactly
// one stamp per write (it keeps no per-component state), while the
// replicated state keeps every component.
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
	const total = 1152
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

	var stamps int
	if _, err := fmt.Sscanf(snap.String(), "bgla.Snapshot{%d stamps}", &stamps); err != nil {
		t.Fatalf("parsing %q: %v", snap.String(), err)
	}
	if stamps != total {
		t.Fatalf("stamp counter %d, want %d", stamps, total)
	}
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

// TestCompactionWorkFlat pins the claim checkpoint compaction exists
// for, in virtual time: with checkpointing on, the protocol work of an
// update round must not grow with history. 144 sequential updates on
// the deterministic network must keep every correct replica's decided
// window within the checkpoint interval, and the messages delivered for
// the last 16 updates must stay within 1.25x of those delivered for
// updates 17-32 (the trace counts one line per delivery).
func TestCompactionWorkFlat(t *testing.T) {
	seed := int64(11)
	if *seedFlag != 0 {
		seed = *seedFlag
	}
	const every, updates = 16, 144
	h := launch(t, seed, scenarioConfig{replicas: 4, faulty: 1, ckptEvery: every})
	h.quiesce()
	lines := []int{h.trace.Lines()} // lines[k]: trace length after update k
	maxWindow := 0
	for k := 1; k <= updates; k++ {
		h.update(fmt.Sprintf("flat-%d", k))
		h.quiesce()
		lines = append(lines, h.trace.Lines())
		if k <= every {
			continue
		}
		for _, r := range h.reps[0] {
			w := r.Decided().WindowLen()
			if w > every {
				t.Fatalf("seed %d: update %d: replica %v holds a decided window of %d > %d", seed, k, r.ID(), w, every)
			}
			maxWindow = max(maxWindow, w)
		}
	}
	minInstalls := int64(updates)
	for _, r := range h.reps[0] {
		n := r.CompactionStats().Installs
		if n < 8 {
			t.Fatalf("seed %d: replica %v installed %d checkpoints, want >= 8", seed, r.ID(), n)
		}
		minInstalls = min(minInstalls, n)
	}
	early := lines[2*every] - lines[every]
	late := lines[updates] - lines[updates-every]
	t.Logf("installs >= %d per replica, max window %d, deliveries %d (updates %d-%d) vs %d (last %d)",
		minInstalls, maxWindow, early, every+1, 2*every, late, every)
	if 4*late > 5*early {
		t.Fatalf("seed %d: last %d updates delivered %d messages, updates %d-%d delivered %d (> 1.25x)",
			seed, every, late, every+1, 2*every, early)
	}
	h.finish()
	h.assertClean()
}

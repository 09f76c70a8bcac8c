package gwts

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"bgla/internal/chanet"
	"bgla/internal/compact"
	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

const testClient ident.ProcessID = 1000

func ckptMachine(t testing.TB, kc sig.Keychain, id ident.ProcessID, n, f, every int) *Machine {
	t.Helper()
	m, err := New(Config{
		Self: id, N: n, F: f,
		Compaction: compact.Config{
			Self: id, N: n, F: f,
			Keychain: kc, Signer: kc.SignerFor(id),
			Every: every,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// awaitDecidedLen drains decide events until proc's decision reaches
// want items or progress stalls.
func awaitDecidedLen(net *chanet.Net, proc ident.ProcessID, want int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	decided, idle := 0, 0
	for decided < want && idle < 100 && time.Now().Before(deadline) {
		got := net.AwaitEvents(1, 50*time.Millisecond, func(e proto.Event) bool {
			d, ok := e.(proto.DecideEvent)
			if !ok || d.Proc != proc {
				return false
			}
			if d.Value.Len() > decided {
				decided = d.Value.Len()
			}
			return true
		})
		if got == 0 {
			idle++
		} else {
			idle = 0
		}
	}
	return decided
}

// TestCompactionEndToEnd drives a live 4-replica GWTS cluster with
// checkpointing enabled: decisions must keep flowing across checkpoint
// boundaries, every replica must install certificates, and the live
// sets must be anchored on a certified base.
func TestCompactionEndToEnd(t *testing.T) {
	n, f, every, values := 4, 1, 24, 150
	kc := sig.NewSim(n, 42)
	var machines []proto.Machine
	var reps []*Machine
	for i := 0; i < n; i++ {
		m := ckptMachine(t, kc, ident.ProcessID(i), n, f, every)
		reps = append(reps, m)
		machines = append(machines, m)
	}
	net := chanet.New(machines, chanet.Options{Seed: 5})
	net.Start()
	for k := 0; k < values; k++ {
		cmd := lattice.Item{Author: testClient, Body: fmt.Sprintf("cmd-%04d", k)}
		net.Inject(testClient, ident.ProcessID(k%(f+1)), msg.NewValue{Cmd: cmd})
	}
	decided := awaitDecidedLen(net, 0, values, 60*time.Second)
	// The certificate round (prop -> countersign -> cert -> install)
	// completes asynchronously after the triggering decision; the
	// tracker counters are atomic, so poll them before quiescing.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, m := range reps {
			if m.CompactionStats().Installs == 0 {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	net.Stop()

	if got := reps[0].Decided().Len(); got < values {
		t.Fatalf("p0 decided %d/%d values (event high-water %d)", got, values, decided)
	}
	for i, m := range reps {
		st := m.CompactionStats()
		if st.Installs == 0 || st.Epoch == 0 {
			t.Fatalf("replica %d installed no checkpoint: %+v", i, st)
		}
		if st.BaseLen < int64(every) {
			t.Fatalf("replica %d base too small: %+v", i, st)
		}
		if dig, _, ok := m.Decided().BaseInfo(); !ok {
			t.Errorf("replica %d decided set is not base-anchored", i)
		} else if base := m.CheckpointBase(); base == nil || base.Digest() != dig {
			t.Errorf("replica %d decided anchored on a non-current base", i)
		}
		if len(m.Decisions()) > maxDecSeqCompacted {
			t.Errorf("replica %d decision log not trimmed: %d entries", i, len(m.Decisions()))
		}
	}
	// Decisions stay pairwise comparable across compaction boundaries.
	for i := range reps {
		for j := i + 1; j < len(reps); j++ {
			if !reps[i].Decided().Comparable(reps[j].Decided()) {
				t.Fatalf("replicas %d and %d decided incomparable values", i, j)
			}
		}
	}
}

// TestRejoinViaStateTransfer kills one replica mid-run, restarts it
// empty, and verifies it reaches the current view through checkpoint
// state transfer — not by replaying the history it missed (the
// disclosure broadcasts from its downtime are gone for good). Run with
// -race in CI.
func TestRejoinViaStateTransfer(t *testing.T) {
	n, f, every := 4, 1, 24
	kc := sig.NewSim(n, 11)
	var machines []proto.Machine
	var reps []*Machine
	for i := 0; i < n-1; i++ {
		m := ckptMachine(t, kc, ident.ProcessID(i), n, f, every)
		reps = append(reps, m)
		machines = append(machines, m)
	}
	victim := ident.ProcessID(n - 1)
	wrapper := compact.NewRestartable(ckptMachine(t, kc, victim, n, f, every))
	machines = append(machines, wrapper)
	net := chanet.New(machines, chanet.Options{Seed: 13})
	net.Start()

	inject := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			cmd := lattice.Item{Author: testClient, Body: fmt.Sprintf("cmd-%04d", k)}
			net.Inject(testClient, ident.ProcessID(k%(f+1)), msg.NewValue{Cmd: cmd})
		}
	}

	// Phase 1: healthy cluster decides the first batch.
	inject(0, 60)
	if got := awaitDecidedLen(net, 0, 60, 60*time.Second); got < 60 {
		net.Stop()
		t.Fatalf("phase 1: p0 decided only %d/60", got)
	}

	// Phase 2: crash the victim; the cluster keeps deciding without it
	// (one silent replica is within f=1).
	wrapper.Crash()
	inject(60, 120)
	if got := awaitDecidedLen(net, 0, 120, 60*time.Second); got < 120 {
		net.Stop()
		t.Fatalf("phase 2: p0 decided only %d/120", got)
	}

	// Phase 3: restart from empty. The disclosures of phase 2 are
	// unrecoverable; only a checkpoint can cover them. Keep traffic
	// flowing so new checkpoints form, and wait for the fresh machine
	// to install one via state transfer.
	fresh := ckptMachine(t, kc, victim, n, f, every)
	wrapper.Swap(fresh)
	net.Inject(testClient, victim, msg.Wakeup{Tag: "rejoin"})
	inject(120, 240)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := fresh.CompactionStats()
		if st.TransfersReceived >= 1 && st.BaseLen >= 120 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	awaitDecidedLen(net, 0, 240, 60*time.Second)
	net.Stop()

	st := fresh.CompactionStats()
	if st.TransfersReceived < 1 {
		t.Fatalf("restarted replica never caught up via state transfer: %+v", st)
	}
	if st.BaseLen < 120 {
		t.Fatalf("restarted replica's certified base (%d items) does not cover its missed history", st.BaseLen)
	}
	if fresh.Decided().Len() < int(st.BaseLen) {
		t.Fatalf("restarted replica decided %d < base %d", fresh.Decided().Len(), st.BaseLen)
	}
	// The rejoined replica's view is comparable with the survivors'.
	for i, m := range reps {
		if !fresh.Decided().Comparable(m.Decided()) {
			t.Fatalf("rejoined replica incomparable with replica %d", i)
		}
	}
}

// cmdSet returns the commands lo..hi-1 as a flat set.
func cmdSet(lo, hi int) lattice.Set {
	items := make([]lattice.Item, 0, hi-lo)
	for k := lo; k < hi; k++ {
		items = append(items, lattice.Item{Author: testClient, Body: fmt.Sprintf("put|key-%06d|v", k)})
	}
	return lattice.FromItems(items...)
}

// signedCert builds a checkpoint certificate over v countersigned by
// replicas 0..2f.
func signedCert(kc sig.Keychain, f, epoch, round int, v lattice.Set) msg.CkptCert {
	image := compact.ImageHash(v)
	c := msg.CkptCert{Epoch: epoch, Round: round, Len: v.Len(), Dig: v.Digest(), Image: image}
	for id := 0; id < compact.CertQuorum(f); id++ {
		c.Sigs = append(c.Sigs, compact.Sign(kc.SignerFor(ident.ProcessID(id)), epoch, round, v.Len(), v.Digest(), image))
	}
	return c
}

// TestDecisionAfterInstallIsAnchored: a quorum value acked before an
// install arrives flat (or on an older base); adopting it must re-anchor
// it on the certified base, or Decided_set stays O(history) until the
// next install (the "decided set is not base-anchored" flake of
// TestCompactionEndToEnd).
func TestDecisionAfterInstallIsAnchored(t *testing.T) {
	n, f := 4, 1
	kc := sig.NewSim(n, 21)
	m := ckptMachine(t, kc, 3, n, f, 1<<20)
	prefix := cmdSet(0, 64)
	round := 5
	m.Handle(1, msg.StateRep{Cert: signedCert(kc, f, 1, round, prefix), Value: prefix})
	base := m.CheckpointBase()
	if base == nil || base.Len() != prefix.Len() {
		t.Fatal("state transfer did not install the checkpoint")
	}

	// Drive the next round to Proposing: one client value, then n-f
	// disclosures.
	next := lattice.Item{Author: testClient, Body: "put|key-next|v"}
	m.Handle(testClient, msg.NewValue{Cmd: next})
	for p := 0; p < n-f; p++ {
		m.onDisclosure(ident.ProcessID(p), msg.Disclosure{Round: round + 1, Value: lattice.Singleton(next)})
	}
	if m.State() != Proposing || m.Round() != round+1 {
		t.Fatalf("machine not proposing round %d: %v in round %d", round+1, m.State(), m.Round())
	}

	// An ack quorum over a flat superset of the base.
	flat := prefix.Union(lattice.Singleton(next))
	if _, _, anchored := flat.BaseInfo(); anchored {
		t.Fatal("fixture value must be flat")
	}
	for p := 0; p < core.AckQuorum(n, f); p++ {
		m.onAckB(ident.ProcessID(p), msg.AckB{Accepted: flat, Dest: m.ID(), TS: m.ts, Round: round + 1})
	}
	if !m.Decided().Equal(flat) {
		t.Fatalf("decided %d items, want the quorum value's %d", m.Decided().Len(), flat.Len())
	}
	if m.Decided().Anchor() != base {
		t.Fatal("decided set adopted from the ack quorum is not anchored on the certified base")
	}
}

// BenchmarkApplyInstall times one checkpoint install on a replica whose
// live state is a certified base of `history` items plus a 1024-item
// window, 8 retained rounds × 4 acceptors of Ack_history tuples and 50
// rounds of safe universes. The new Base is built outside the timed
// region (its flatten is the O(history) step verifyValue keeps), so
// ns/op should barely move from 4k to 64k: applyInstall is O(window).
func BenchmarkApplyInstall(b *testing.B) {
	const window, rounds, acceptors, retained = 1024, 50, 4, 8
	n, f := 4, 1
	kc := sig.NewSim(n, 1)
	for _, history := range []int{4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("history=%dk", history>>10), func(b *testing.B) {
			all := cmdSet(0, history+window).Items()
			prefix := lattice.FromItems(all[:history]...)
			base0 := lattice.NewBase(prefix)
			prefix = prefix.TryRebase(base0)
			onBase0 := func(k int) lattice.Set { // the first history+k commands
				return prefix.Union(lattice.FromItems(all[history : history+k]...)).TryRebase(base0)
			}
			decided := onBase0(window)
			certified := onBase0(window - 64)
			inst := &compact.Install{
				Cert:  msg.CkptCert{Epoch: 2, Round: rounds, Len: certified.Len(), Dig: certified.Digest()},
				Value: certified,
				Base:  lattice.NewBase(certified),
			}
			var decSeq []lattice.Set
			for k := 1; k <= maxDecSeqCompacted; k++ {
				decSeq = append(decSeq, onBase0(k*window/maxDecSeqCompacted))
			}
			// Safe universes: the certified base, then 50 rounds of 4
			// disclosures that together cover the window.
			disclosed := make([][]lattice.Set, rounds+1)
			for r := 1; r <= rounds; r++ {
				for a := 0; a < acceptors; a++ {
					i := (r-1)*acceptors + a
					lo, hi := i*window/(rounds*acceptors), (i+1)*window/(rounds*acceptors)
					disclosed[r] = append(disclosed[r], lattice.FromItems(all[history+lo:history+hi]...))
				}
			}
			// Ack_history: per retained round, two values acked by two
			// acceptors each; the older rounds' values are smaller than
			// the certified prefix.
			acked := make([][2]lattice.Set, retained)
			for i := range acked {
				k := (i + 1) * window / retained
				acked[i] = [2]lattice.Set{onBase0(k), onBase0(k - 1)}
			}
			setup := func() *Machine {
				m := ckptMachine(b, kc, 0, n, f, 1<<20)
				m.ck.ApplyInstall(&compact.Install{Cert: msg.CkptCert{Epoch: 1, Len: history}, Value: prefix, Base: base0})
				m.decided, m.accepted, m.proposed, m.inputs = decided, decided, decided, decided
				m.decSeq = append([]lattice.Set(nil), decSeq...)
				m.r, m.safeR, m.state = rounds+1, rounds+1, Proposing
				m.svs.Install(0, 0, prefix, base0)
				for r := 1; r <= rounds; r++ {
					for a, v := range disclosed[r] {
						m.svs.Add(r, ident.ProcessID(a), v)
					}
				}
				for i, vs := range acked {
					for a := 0; a < acceptors; a++ {
						m.tally.Add(ident.ProcessID(a), vs[a%2], ident.ProcessID(a%2), 1, rounds-retained+1+i)
					}
				}
				return m
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := setup()
				runtime.GC() // charge no set-up garbage to the install
				b.StartTimer()
				m.applyInstall(inst)
			}
		})
	}
}

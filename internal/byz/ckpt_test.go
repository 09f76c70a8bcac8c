package byz

import (
	"fmt"
	"strings"
	"testing"

	"bgla/internal/compact"
	"bgla/internal/core/gwts"
	"bgla/internal/faultnet"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

const ckptClient ident.ProcessID = 1000

// driveCkptAdversary runs 3 correct compacting replicas plus one
// adversary under the deterministic harness and returns the correct
// machines after the run.
func driveCkptAdversary(t *testing.T, adv proto.Machine, kc sig.Keychain, values int) []*gwts.Machine {
	t.Helper()
	n, f, every := 4, 1, 8
	var machines []proto.Machine
	var correct []*gwts.Machine
	for i := 0; i < n-1; i++ {
		id := ident.ProcessID(i)
		m, err := gwts.New(gwts.Config{
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
		correct = append(correct, m)
		machines = append(machines, m)
	}
	machines = append(machines, adv)
	net := faultnet.New(machines, faultnet.Options{Seed: 9, Delay: faultnet.Uniform{Lo: 1, Hi: 2}})
	net.Start()
	for k := 0; k < values; k++ {
		cmd := lattice.Item{Author: ckptClient, Body: fmt.Sprintf("cmd-%03d", k)}
		net.Inject(ckptClient, ident.ProcessID(k%(f+1)), msg.NewValue{Cmd: cmd})
		net.Quiesce()
	}
	net.Quiesce()
	net.Stop()
	return correct
}

// assertCkptSafety: decisions complete and comparable, no adversarial
// junk decided, every installed certificate verifies against the
// keychain and anchors the replica's base.
func assertCkptSafety(t *testing.T, correct []*gwts.Machine, kc sig.Keychain, n, f, values int) {
	t.Helper()
	for i, m := range correct {
		if got := m.Decided().Len(); got < values {
			t.Fatalf("replica %d decided %d/%d", i, got, values)
		}
		m.Decided().Each(func(it lattice.Item) bool {
			if strings.Contains(it.Body, "poisoned") || strings.Contains(it.Body, "forged") {
				t.Fatalf("replica %d decided adversarial item %v", i, it)
			}
			return true
		})
		st := m.CompactionStats()
		if st.Installs == 0 {
			t.Fatalf("replica %d never compacted under attack: %+v", i, st)
		}
		cert, ok := m.CheckpointCert()
		if !ok {
			t.Fatalf("replica %d has no certificate", i)
		}
		if !compact.VerifyCert(kc, n, f, cert) {
			t.Fatalf("replica %d holds an invalid certificate", i)
		}
		if base := m.CheckpointBase(); base == nil || base.Digest() != cert.Dig {
			t.Fatalf("replica %d base does not match its certificate", i)
		}
	}
	for i := range correct {
		for j := i + 1; j < len(correct); j++ {
			if !correct[i].Decided().Comparable(correct[j].Decided()) {
				t.Fatalf("replicas %d and %d decided incomparable values", i, j)
			}
		}
	}
}

// TestCkptForgerCannotCorruptChain: forged certificates, stale
// replays, doctored epochs and poisoned state transfers all bounce off
// certificate verification while compaction keeps making progress.
func TestCkptForgerCannotCorruptChain(t *testing.T) {
	n, f, values := 4, 1, 40
	kc := sig.NewSim(n, 77)
	forger := &CkptForger{Self: ident.ProcessID(n - 1), N: n, F: f, Keychain: kc}
	correct := driveCkptAdversary(t, forger, kc, values)
	assertCkptSafety(t, correct, kc, n, f, values)
}

// TestSigReplayerCannotForgeQuorum: mirrored proposals hand the
// replayer genuine countersignatures; replaying them against other
// epochs and proposals must never complete a quorum for content the
// signers did not countersign.
func TestSigReplayerCannotForgeQuorum(t *testing.T) {
	n, f, values := 4, 1, 40
	kc := sig.NewSim(n, 78)
	replayer := &SigReplayer{Self: ident.ProcessID(n - 1)}
	correct := driveCkptAdversary(t, replayer, kc, values)
	assertCkptSafety(t, correct, kc, n, f, values)
}

package gwts

import (
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Rehydrate restores a freshly constructed machine from locally
// persisted state (the internal/wal recovery result) so a restarted
// replica resumes from its own disk instead of asking peers. It must
// be called after New and before Start or any delivery.
//
// The restoration mirrors applyInstall, minus everything that talks to
// the network: the persisted certificate (if any) is re-verified and
// re-installed through the compaction tracker, the recovered decided
// value is adopted into Decided/Accepted/Proposed, the safe
// universe is seeded with it (the certificate and the local quorum
// evidence that produced each decided record transfer Lemma 12's
// filtering), and Safe_r fast-forwards to the highest round the log
// proves legitimately ended. The window beyond the certified base is
// queued for re-disclosure so a restarting cluster can re-cover the
// tail without any pre-crash message state. No rounds are started and
// no outputs or events are produced — Start does that, exactly as on a
// cold boot.
//
// decided is the full recovered decided value; safeR the highest
// Safe_r the log recorded; cert (optional) the deepest persisted
// checkpoint certificate with certValue its certified prefix.
func (m *Machine) Rehydrate(decided lattice.Set, safeR int, cert *msg.CkptCert, certValue lattice.Set) {
	if decided.IsEmpty() && cert == nil {
		return
	}
	certRound := -1
	if cert != nil && m.ck != nil {
		// Re-verify rather than trust: the tracker checks the quorum
		// signatures and the digest/length/image of the resolved value,
		// so a corrupted snapshot that slipped past the CRC cannot forge
		// a certified base.
		resolve := func(dig lattice.Digest) (lattice.Set, bool) {
			if certValue.Digest() == dig {
				return certValue, true
			}
			if decided.Digest() == dig {
				return decided, true
			}
			return lattice.Set{}, false
		}
		if inst, _ := m.ck.OnCert(*cert, resolve); inst != nil {
			m.ck.ApplyInstall(inst)
			certRound = inst.Cert.Round
		}
	}

	// The local log is this replica's own pre-crash output: every
	// decided record was quorum-committed when written, so adopting it
	// wholesale preserves Local Stability across the restart, and
	// restoring Accepted_set to it makes the acceptor nack-merge the
	// recovered history into any proposal that misses it.
	full := decided
	if cert != nil {
		full = full.Union(certValue)
	}
	m.decided = m.decided.Union(full)
	m.accepted = m.accepted.Union(full)
	m.proposed = m.proposed.Union(full)

	if safeR > certRound {
		certRound = safeR
	}
	if certRound < 0 {
		certRound = 0
	}
	m.svs.Seed(certRound, full)
	if certRound > m.safeR {
		m.safeR = certRound
	}

	// Queue the tail beyond the certified base for re-disclosure: after
	// a whole-cluster restart nobody holds the original disclosures, so
	// round 0's batch re-covers the window for everyone.
	window := full
	if m.ck != nil {
		if base := m.ck.Base(); base != nil {
			window = lattice.FromItems(full.Minus(base.Set())...)
		}
	}
	m.pendingV = m.pendingV.Union(window)

	// Rewrite the live sets as base + window, as applyInstall would.
	if m.ck != nil {
		if base := m.ck.Base(); base != nil {
			m.decided = m.decided.TryRebase(base)
			m.accepted = m.accepted.TryRebase(base)
			m.proposed = m.proposed.TryRebase(base)
			m.pendingV = m.pendingV.TryRebase(base)
		}
	}
	m.decSeq = []lattice.Set{m.decided}
	m.Emit(proto.DecideEvent{Proc: m.cfg.Self, Round: certRound, Value: m.decided})
}

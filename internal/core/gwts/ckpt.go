package gwts

import (
	"fmt"

	"bgla/internal/compact"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
)

// This file glues the checkpoint-compaction tracker (internal/compact)
// into the GWTS machine: proposal countersigning against the local
// Ack_history, certificate assembly and installation, state transfer
// for lagging replicas, and the post-install rewrite of the machine's
// live sets as "certified base + window" (DESIGN.md §6).

// ckptTrimMargin is how many rounds of Ack_history before the
// checkpoint round survive the post-install trim, so in-flight read
// confirmations over recent tuples keep resolving.
const ckptTrimMargin = 8

// CompactionStats snapshots the tracker's atomic counters (safe to
// call from any goroutine while the transport drives the machine).
func (m *Machine) CompactionStats() compact.Stats { return m.ck.Stats() }

// CheckpointBase returns the current certified prefix (nil before the
// first install or with compaction disabled). Only read after the
// transport has quiesced.
func (m *Machine) CheckpointBase() *lattice.Base {
	if m.ck == nil {
		return nil
	}
	return m.ck.Base()
}

// CheckpointCert returns the machine's current (deepest) installed
// checkpoint certificate, if any. Only read after the transport has
// quiesced; the fault-injection harness validates the certificate
// chain with it (internal/faultnet).
func (m *Machine) CheckpointCert() (msg.CkptCert, bool) {
	if m.ck == nil {
		return msg.CkptCert{}, false
	}
	return m.ck.Cert()
}

// ckLookup resolves quorum-committed values for proposal
// countersigning: the value must have reached the ack quorum at the
// proposal's round in our own Ack_history. When we decided that value
// ourselves, our decision supplies the items: it is the set ckResolve
// later hands the install, so the tracker hashes the prefix once.
func (m *Machine) ckLookup(dig lattice.Digest, round int) (lattice.Set, bool) {
	v, ok := m.tally.QuorumValueAt(dig, round, m.quorum)
	if !ok {
		return v, false
	}
	if d, mine := m.decidedByDigest(dig); mine {
		return d, true
	}
	return v, true
}

// ckRetryPending re-evaluates buffered checkpoint proposals; called
// whenever Ack_history grows.
func (m *Machine) ckRetryPending() []proto.Output {
	if m.ck == nil {
		return nil
	}
	var outs []proto.Output
	for _, o := range m.ck.RetryPending(m.ckLookup, m.safeR) {
		if o.To == m.cfg.Self {
			// Our own proposal: feed the signature straight back in.
			outs = append(outs, m.onCkptSig(m.cfg.Self, o.Sig)...)
			continue
		}
		outs = append(outs, proto.Send(o.To, o.Sig))
	}
	return outs
}

// onCkptProp buffers a peer's proposal and tries to countersign
// immediately.
func (m *Machine) onCkptProp(from ident.ProcessID, p msg.CkptProp) []proto.Output {
	if m.ck == nil {
		return nil
	}
	p.From = from // trust the authenticated transport sender, not the field
	m.ck.OnProp(p)
	return m.ckRetryPending()
}

// onCkptSig collects countersignatures for proposals we initiated; at
// 2f+1 the certificate is assembled, installed locally and broadcast.
func (m *Machine) onCkptSig(from ident.ProcessID, s msg.CkptSig) []proto.Output {
	if m.ck == nil {
		return nil
	}
	cert, ok := m.ck.OnSig(from, s)
	if !ok {
		return nil
	}
	outs := []proto.Output{proto.Bcast(cert)}
	// Our own broadcast loops back through the transport, but install
	// eagerly: the assembler should not depend on its own echo.
	outs = append(outs, m.ckInstallCert(cert)...)
	return outs
}

// ckResolve finds the items behind a certificate digest: one of our
// retained decisions or any recorded Ack_history value. Authenticity is
// not needed here — the install path re-verifies the digest and folded
// image against the certificate.
func (m *Machine) ckResolve(dig lattice.Digest) (lattice.Set, bool) {
	if v, ok := m.decidedByDigest(dig); ok {
		return v, true
	}
	return m.tally.ValueByDigest(dig)
}

// decidedByDigest returns the retained decision with the given digest,
// newest first. Decisions sit on our own certified base (tryDecide
// re-anchors them), which lets the tracker reuse an image and check
// containment structurally.
func (m *Machine) decidedByDigest(dig lattice.Digest) (lattice.Set, bool) {
	if m.decided.Digest() == dig {
		return m.decided, true
	}
	for i := len(m.decSeq) - 1; i >= 0; i-- {
		if m.decSeq[i].Digest() == dig {
			return m.decSeq[i], true
		}
	}
	return lattice.Set{}, false
}

// onCkptCert verifies and installs a received certificate; when the
// prefix items are not locally resolvable (lagging or restarted
// replica) a state transfer is requested from the sender instead of
// replaying history.
func (m *Machine) onCkptCert(from ident.ProcessID, c msg.CkptCert) []proto.Output {
	return m.ckInstallFrom(from, c)
}

func (m *Machine) ckInstallCert(c msg.CkptCert) []proto.Output {
	return m.ckInstallFrom(m.cfg.Self, c)
}

func (m *Machine) ckInstallFrom(from ident.ProcessID, c msg.CkptCert) []proto.Output {
	if m.ck == nil {
		return nil
	}
	inst, needState := m.ck.OnCert(c, m.ckResolve)
	if inst != nil {
		return m.applyInstall(inst)
	}
	if needState && from != m.cfg.Self {
		m.ck.NoteStateReq()
		m.trace(obs.EvStateTransfer, c.Round, "request", from.String())
		return []proto.Output{proto.Send(from, msg.StateReq{Dig: c.Dig})}
	}
	return nil
}

// onStateReq serves a lagging replica the current certified prefix.
func (m *Machine) onStateReq(from ident.ProcessID, req msg.StateReq) []proto.Output {
	if m.ck == nil {
		return nil
	}
	rep, ok := m.ck.OnStateReq(req)
	if !ok {
		return nil
	}
	m.trace(obs.EvStateTransfer, rep.Cert.Round, "serve", from.String())
	return []proto.Output{proto.Send(from, rep)}
}

// onStateRep installs a transferred prefix after full verification
// (certificate quorum, content digest, folded image).
func (m *Machine) onStateRep(from ident.ProcessID, rep msg.StateRep) []proto.Output {
	if m.ck == nil {
		return nil
	}
	inst := m.ck.OnStateRep(rep)
	if inst == nil {
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: from, Kind: rep.Kind(), Reason: "bad state transfer"})
		return nil
	}
	m.trace(obs.EvStateTransfer, rep.Cert.Round, "install", from.String())
	return m.applyInstall(inst)
}

// applyInstall adopts a verified checkpoint: the certified prefix
// becomes part of Decided_set (it is quorum-committed, hence contained
// in every future decision), every live set is rewritten as base +
// window, the safe universe is seeded with the certified value, the
// acceptor's Safe_r fast-forwards to the certificate round (≥ f+1
// correct signers already deemed those rounds legitimately ended), and
// history-sized bookkeeping before the round margin is trimmed.
func (m *Machine) applyInstall(inst *compact.Install) []proto.Output {
	m.ck.ApplyInstall(inst)
	base, v, round := inst.Base, inst.Value, inst.Cert.Round
	var outs []proto.Output

	if !v.SubsetOf(m.decided) {
		m.decided = m.decided.Union(v)
		m.decSeq = append(m.decSeq, m.decided)
		m.Emit(proto.DecideEvent{Proc: m.cfg.Self, Round: round, Value: m.decided})
		for _, sub := range m.cfg.Subscribers {
			outs = append(outs, proto.Send(sub, msg.Decide{Value: m.decided, Round: round}))
		}
	}
	m.trimDecSeq()
	m.accepted = m.accepted.Union(v)
	m.proposed = m.proposed.Union(v)

	m.decided = m.decided.TryRebase(base)
	m.accepted = m.accepted.TryRebase(base)
	m.proposed = m.proposed.TryRebase(base)
	for i := range m.decSeq {
		m.decSeq[i] = m.decSeq[i].TryRebase(base)
	}

	// The certificate transfers Lemma 12's filtering: seed the safe
	// universe with the certified prefix so messages over it process
	// without the original disclosures, freeze the rounds behind the
	// margin and re-anchor, all in one pass; then trim Ack_history.
	cutoff := round - ckptTrimMargin
	m.svs.Install(round, cutoff, v, base)
	if cutoff > 0 {
		m.tally.Trim(cutoff)
		for k, r := range m.acked {
			if r < cutoff {
				delete(m.acked, k)
			}
		}
	}
	m.tally.Rebase(base)

	if round > m.safeR {
		m.safeR = round
	}
	// The install point is where the durable checkpoint store hooks in
	// (internal/wal): emitted after the DecideEvent above, so the
	// storage layer sees the decided growth before the snapshot cut.
	m.Emit(proto.CkptInstallEvent{Proc: m.cfg.Self, Cert: inst.Cert, Value: inst.Value})
	m.trace(obs.EvCkptInstall, round, "", fmt.Sprintf("epoch=%d len=%d", inst.Cert.Epoch, inst.Value.Len()))
	// A round at or below the certificate round is superseded: its
	// outcome is covered by the checkpoint, and a lagging replica could
	// otherwise stall waiting for disclosures that were broadcast while
	// it was down. Re-enter at the certificate round.
	if m.r <= round {
		if m.state != NewRound {
			m.state = NewRound
		}
		m.r = round
		outs = append(outs, m.maybeStartNext()...)
	}
	// Newly-covered buffered messages and confirmations may have
	// become processable.
	outs = append(outs, m.drainWaiting()...)
	outs = append(outs, m.serveConfs()...)
	return outs
}

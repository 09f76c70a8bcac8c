// Package gwts implements Generalized Wait Till Safe (paper §6,
// Algorithms 3 and 4), the round-based extension of WTS that decides an
// unbounded sequence of growing values, plus the proposer plug-in of
// Algorithm 7 that serves RSM read confirmations.
//
// Each Machine plays proposer and acceptor. Values received between
// rounds are batched; each round runs a disclosure phase (reliable
// broadcast of the batch) and a deciding phase (ack requests answered by
// *reliably broadcast* acceptor acks, making acceptance public). Two
// defenses distinguish GWTS from a naive repetition of WTS:
//
//   - acceptors only serve rounds r ≤ Safe_r, and Safe_r advances only
//     when round Safe_r produced a quorum-committed proposal (a
//     "legitimate end"), so Byzantine proposers cannot race ahead
//     through rounds and starve correct proposers (§6.2);
//   - acks are reliably broadcast, so any correct proposer can adopt a
//     committed proposal of round r and decide it, provided it contains
//     the proposer's previous decision (Local Stability guard, Alg 3
//     line 38).
//
// Faithfulness notes (see DESIGN.md §2): the SAFE universe is cumulative
// across rounds, and the acceptor-style SAFEA ("safe at any round")
// guard is used uniformly, which is what makes cross-round proposals
// (Proposed_set accumulates forever) processable.
package gwts

import (
	"fmt"
	"strconv"

	"bgla/internal/compact"
	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/obs"
	"bgla/internal/proto"
	"bgla/internal/rbc"
)

// State is the proposer state of Alg 3.
type State int

// Proposer states.
const (
	NewRound State = iota
	Disclosing
	Proposing
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case NewRound:
		return "newround"
	case Disclosing:
		return "disclosing"
	case Proposing:
		return "proposing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config configures one GWTS process.
type Config struct {
	Self ident.ProcessID
	N    int
	F    int
	// InitialValues seed Batch[0] (tests and benchmarks; RSM replicas
	// receive values through msg.NewValue instead).
	InitialValues []lattice.Item
	// MinRounds makes the proposer join rounds 0..MinRounds-1 even with
	// empty batches, reproducing the paper's unconditional round
	// progression for a finite prefix.
	MinRounds int
	// Subscribers receive a msg.Decide notification for every decision
	// (the replica->client push of Algorithm 5/6).
	Subscribers []ident.ProcessID
	// MaxWaiting caps the unsafe-message buffer (0 = 8192).
	MaxWaiting int
	// MaxPendingConf caps buffered read-confirmation requests (0 = 1024).
	MaxPendingConf int

	// Compaction enables checkpointed history compaction (DESIGN.md §6):
	// once the decided window crosses its thresholds the machine folds
	// the decided prefix into a 2f+1-signed checkpoint certificate,
	// rewrites its live sets as base + window, trims Ack_history and
	// the decision log, and serves state transfer to lagging peers. The
	// zero value (no thresholds) disables it.
	Compaction compact.Config

	// DisableRoundGate is an ABLATION switch (experiment E12c): the
	// acceptor serves requests for any round instead of only r ≤ Safe_r,
	// removing the §6.2 defense against round-racing Byzantine
	// proposers. Never use outside experiments.
	DisableRoundGate bool

	// Trace, when non-nil, receives the structured consensus events of
	// DESIGN.md §9 (propose/ack/tally/decide/ckpt_install/
	// state_transfer), timestamped by Clock and labeled with Shard.
	// Every emitted field is a deterministic function of the machine
	// state, so under faultnet's virtual clock the trace is byte-stable.
	Trace *obs.Tracer
	// Clock timestamps trace events (nil = obs.WallClock).
	Clock obs.Clock
	// Shard labels trace events with the owning shard index.
	Shard int
}

type pendingKind int

const (
	pendMsg      pendingKind = iota // plain protocol message
	pendDelivery                    // buffered RBC delivery (AckB)
)

type pending struct {
	kind pendingKind
	from ident.ProcessID // network sender (pendMsg) or RBC source (pendDelivery)
	m    msg.Msg
}

type pendingConf struct {
	client ident.ProcessID
	value  lattice.Set
}

// Machine is one GWTS process.
type Machine struct {
	proto.Recorder
	cfg    Config
	quorum int

	peer *rbc.Peer
	svs  *core.RoundSVS

	// Proposer state (Alg 3).
	state    State
	r        int // current round; -1 before the first round
	ts       uint32
	pendingV lattice.Set // values waiting for the next batch (Batch[r+1])
	proposed lattice.Set // Proposed_set (cumulative)
	decided  lattice.Set // Decided_set
	decSeq   []lattice.Set
	// anchor is the local representation base the live sets are
	// re-anchored on when certificate-backed compaction is disabled
	// (see maybeAutoAnchor).
	anchor *lattice.Base

	// Acceptor state (Alg 4).
	accepted lattice.Set
	safeR    int
	acked    map[ackID]struct{} // ack broadcasts already emitted

	// Shared ack bookkeeping (Ack_history for both roles).
	tally *core.AckTally

	// Checkpoint compaction (nil when disabled).
	ck *compact.Tracker

	waiting  []pending
	confs    []pendingConf
	rejected int
}

// New builds a GWTS machine; the configuration must satisfy n >= 3f+1.
func New(cfg Config) (*Machine, error) {
	if err := core.ValidateConfig(cfg.N, cfg.F); err != nil {
		return nil, err
	}
	return NewUnchecked(cfg), nil
}

// NewUnchecked builds a machine without the resilience-bound check.
func NewUnchecked(cfg Config) *Machine {
	if cfg.MaxWaiting == 0 {
		cfg.MaxWaiting = 8192
	}
	if cfg.MaxPendingConf == 0 {
		cfg.MaxPendingConf = 1024
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.WallClock
	}
	m := &Machine{
		cfg:      cfg,
		quorum:   core.AckQuorum(cfg.N, cfg.F),
		peer:     rbc.NewPeer(cfg.Self, cfg.N, cfg.F),
		svs:      core.NewRoundSVS(),
		state:    NewRound,
		r:        -1,
		acked:    make(map[ackID]struct{}),
		tally:    core.NewAckTally(),
		ck:       compact.NewTracker(cfg.Compaction),
		pendingV: lattice.FromItems(cfg.InitialValues...),
	}
	return m
}

// ID implements proto.Machine.
func (m *Machine) ID() ident.ProcessID { return m.cfg.Self }

// State returns the proposer state.
func (m *Machine) State() State { return m.state }

// Round returns the current round (-1 before the first).
func (m *Machine) Round() int { return m.r }

// SafeRound returns the acceptor's Safe_r.
func (m *Machine) SafeRound() int { return m.safeR }

// Decisions returns the sequence of decisions so far. With compaction
// enabled the log is trimmed to a recent window — the certified
// checkpoint subsumes the prefix (see CompactionStats).
func (m *Machine) Decisions() []lattice.Set { return m.decSeq }

// Decided returns the latest decision (Decided_set).
func (m *Machine) Decided() lattice.Set { return m.decided }

// Proposed returns the cumulative Proposed_set.
func (m *Machine) Proposed() lattice.Set { return m.proposed }

// Rejected returns the count of discarded messages.
func (m *Machine) Rejected() int { return m.rejected + m.peer.Rejected() }

// tracing reports whether a Tracer is attached; hot-path call sites
// check it before building Sprintf details so an untraced machine pays
// no formatting allocations.
func (m *Machine) tracing() bool { return m.cfg.Trace != nil }

// trace emits one consensus trace event; no-op without a Tracer.
func (m *Machine) trace(kind obs.EventKind, round int, key, detail string) {
	if m.cfg.Trace == nil {
		return
	}
	m.cfg.Trace.Emit(obs.Event{
		T:      m.cfg.Clock.Now(),
		Kind:   kind,
		Shard:  m.cfg.Shard,
		Proc:   m.cfg.Self.String(),
		Round:  round,
		Key:    key,
		Detail: detail,
	})
}

// ackID names one ack broadcast <dest, ts, round> of this acceptor.
type ackID struct {
	dest  ident.ProcessID
	ts    uint32
	round int
}

// tagBuf fits the longest RBC tag, so checking a delivery's tag against
// one built on the stack allocates nothing.
type tagBuf [64]byte

func appendDiscTag(b []byte, round int) []byte {
	return strconv.AppendInt(append(b, "gwts/disc/"...), int64(round), 10)
}

func appendAckTag(b []byte, a ackID) []byte {
	b = append(b, "gwts/ack/p"...)
	b = strconv.AppendInt(b, int64(a.dest), 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(a.ts), 10)
	b = append(b, '/')
	return strconv.AppendInt(b, int64(a.round), 10)
}

// Start begins round 0 when there is anything to propose (Alg 3 line 11).
func (m *Machine) Start() []proto.Output {
	if !m.pendingV.IsEmpty() || m.cfg.MinRounds > 0 {
		return m.startRound(0)
	}
	return nil
}

// startRound enters the Values Disclosure Phase of the given round
// (Alg 3 lines 11-15).
func (m *Machine) startRound(round int) []proto.Output {
	m.state = Disclosing
	m.r = round
	batch := m.pendingV
	m.pendingV = lattice.Empty()
	m.proposed = m.proposed.Union(batch)
	m.Emit(proto.JoinRoundEvent{Proc: m.cfg.Self, Round: round})
	if m.tracing() {
		m.trace(obs.EvPropose, round, "", fmt.Sprintf("batch=%d proposed=%d", batch.Len(), m.proposed.Len()))
	}
	var buf tagBuf
	outs := m.peer.Broadcast(string(appendDiscTag(buf[:0], round)), msg.Disclosure{Round: round, Value: batch})
	// The machine's own RBC delivery arrives through the driver; the
	// transition to proposing happens in onDisclosure once Counter[r]
	// reaches n-f.
	return outs
}

// Handle implements proto.Machine.
func (m *Machine) Handle(from ident.ProcessID, in msg.Msg) []proto.Output {
	if outs, handled := m.peer.Handle(from, in); handled {
		for _, d := range m.peer.TakeDeliveries() {
			outs = append(outs, m.onRBCDelivery(d)...)
		}
		return outs
	}
	switch v := in.(type) {
	case msg.NewValue:
		return m.onNewValue(v)
	case msg.AckReq, msg.Nack:
		return m.buffer(pending{kind: pendMsg, from: from, m: in})
	case msg.CnfReq:
		return m.onCnfReq(from, v)
	case msg.CkptProp:
		return m.onCkptProp(from, v)
	case msg.CkptSig:
		return m.onCkptSig(from, v)
	case msg.CkptCert:
		return m.onCkptCert(from, v)
	case msg.StateReq:
		return m.onStateReq(from, v)
	case msg.StateRep:
		return m.onStateRep(from, v)
	case msg.Wakeup:
		return nil
	default:
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: from, Kind: in.Kind(), Reason: "unexpected kind"})
		return nil
	}
}

func (m *Machine) buffer(p pending) []proto.Output {
	if len(m.waiting) >= m.cfg.MaxWaiting {
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: p.from, Kind: p.m.Kind(), Reason: "waiting buffer full"})
		return nil
	}
	m.waiting = append(m.waiting, p)
	return m.drainWaiting()
}

// onNewValue queues a client value for the next batch (Alg 3 lines 8-9)
// and opportunistically starts a round.
func (m *Machine) onNewValue(v msg.NewValue) []proto.Output {
	it := v.Cmd
	if m.proposed.Contains(it) || m.pendingV.Contains(it) {
		return nil // already in flight; set semantics make re-proposing redundant
	}
	m.pendingV = m.pendingV.Union(lattice.Singleton(it))
	if m.state == NewRound {
		return m.startRound(m.r + 1)
	}
	return nil
}

// onRBCDelivery dispatches validated reliable-broadcast deliveries:
// disclosures feed the SvS; acceptor acks feed the shared Ack_history.
func (m *Machine) onRBCDelivery(d rbc.Delivery) []proto.Output {
	var buf tagBuf
	switch p := d.Payload.(type) {
	case msg.Disclosure:
		if p.Round < 0 || d.Tag != string(appendDiscTag(buf[:0], p.Round)) {
			m.rejected++
			m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: d.Src, Kind: p.Kind(), Reason: "tag/round mismatch"})
			return nil
		}
		return m.onDisclosure(d.Src, p)
	case msg.AckB:
		if p.Round < 0 || d.Tag != string(appendAckTag(buf[:0], ackID{p.Dest, p.TS, p.Round})) {
			m.rejected++
			m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: d.Src, Kind: p.Kind(), Reason: "tag mismatch"})
			return nil
		}
		return m.buffer(pending{kind: pendDelivery, from: d.Src, m: p})
	default:
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: d.Src, Kind: d.Payload.Kind(), Reason: "unexpected rbc payload"})
		return nil
	}
}

// onDisclosure implements Alg 3 lines 16-20 plus the phase transition of
// lines 22-25 and the join-on-demand round start (DESIGN.md §2 note 3).
func (m *Machine) onDisclosure(src ident.ProcessID, d msg.Disclosure) []proto.Output {
	if !m.svs.Add(d.Round, src, d.Value) {
		return nil
	}
	var outs []proto.Output
	if m.state == Disclosing && d.Round <= m.r {
		m.proposed = m.proposed.Union(d.Value)
	}
	if m.state == Disclosing && m.svs.Count(m.r) >= m.cfg.N-m.cfg.F {
		m.state = Proposing
		m.ts++
		outs = append(outs, proto.Bcast(msg.AckReq{Proposed: m.proposed, TS: m.ts, Round: m.r}))
		// A quorum for this round may already be in Ack_history (the
		// round legitimately ended while we were still disclosing).
		outs = append(outs, m.tryDecide()...)
	}
	if m.state == NewRound && d.Round == m.r+1 {
		outs = append(outs, m.startRound(m.r+1)...)
	}
	outs = append(outs, m.drainWaiting()...)
	return outs
}

// drainWaiting processes buffered messages whose guards have become
// true, to a fixed point.
func (m *Machine) drainWaiting() []proto.Output {
	var outs []proto.Output
	for {
		progressed := false
		kept := m.waiting[:0]
		for i, p := range m.waiting {
			if progressed {
				kept = append(kept, m.waiting[i:]...)
				break
			}
			done, o := m.tryProcess(p)
			if done {
				progressed = true
				outs = append(outs, o...)
				continue
			}
			if m.dropStale(p) {
				continue
			}
			kept = append(kept, p)
		}
		m.waiting = kept
		if !progressed {
			return outs
		}
	}
}

func (m *Machine) dropStale(p pending) bool {
	if n, ok := p.m.(msg.Nack); ok {
		return n.Round < m.r || (n.Round == m.r && n.TS < m.ts)
	}
	return false
}

func (m *Machine) tryProcess(p pending) (bool, []proto.Output) {
	switch v := p.m.(type) {
	case msg.AckReq:
		// Acceptor guard (Alg 4 line 6): SAFEA(m) ∧ r ≤ Safe_r.
		if v.Round < 0 || (!m.cfg.DisableRoundGate && v.Round > m.safeR) || !m.svs.SafeAny(v.Proposed) {
			return false, nil
		}
		return true, m.acceptorOn(p.from, v)
	case msg.AckB:
		// Shared Ack_history intake (Alg 4 line 14 / Alg 3 line 34).
		if (!m.cfg.DisableRoundGate && v.Round > m.safeR) || !m.svs.SafeAny(v.Accepted) {
			return false, nil
		}
		return true, m.onAckB(p.from, v)
	case msg.Nack:
		// Proposer guard (Alg 3 line 28).
		if m.state != Proposing || v.TS != m.ts || v.Round != m.r || !m.svs.SafeAny(v.Accepted) {
			return false, nil
		}
		return true, m.onNack(v)
	}
	return false, nil
}

// acceptorOn implements Alg 4 lines 6-13: ack via reliable broadcast,
// nack point-to-point.
func (m *Machine) acceptorOn(from ident.ProcessID, req msg.AckReq) []proto.Output {
	if m.accepted.SubsetOf(req.Proposed) {
		m.accepted = req.Proposed
		id := ackID{from, req.TS, req.Round}
		if _, dup := m.acked[id]; dup {
			return nil // defensive: never reliable-broadcast the same tag twice
		}
		m.acked[id] = struct{}{}
		if m.tracing() {
			m.trace(obs.EvAck, req.Round, from.String(), fmt.Sprintf("acc=%d", m.accepted.Len()))
		}
		var buf tagBuf
		return m.peer.Broadcast(string(appendAckTag(buf[:0], id)), msg.AckB{Accepted: m.accepted, Dest: from, TS: req.TS, Round: req.Round})
	}
	out := proto.Send(from, msg.Nack{Accepted: m.accepted, TS: req.TS, Round: req.Round})
	m.accepted = m.accepted.Union(req.Proposed)
	return []proto.Output{out}
}

// onAckB records a publicly broadcast ack and advances Safe_r and the
// decision rule.
func (m *Machine) onAckB(src ident.ProcessID, a msg.AckB) []proto.Output {
	m.tally.Add(src, a.Accepted, a.Dest, a.TS, a.Round)
	if m.tracing() {
		m.trace(obs.EvTally, a.Round, a.Dest.String(), fmt.Sprintf("from=%s acc=%d", src, a.Accepted.Len()))
	}
	var outs []proto.Output
	// Acceptor side: advance Safe_r while rounds keep legitimately
	// ending (Alg 4 lines 17-19). Buffered messages unlocked by the
	// advance are picked up by the enclosing drainWaiting fixed point.
	for m.tally.RoundReached(m.safeR, m.quorum) {
		m.safeR++
	}
	// Proposer side: try to decide the current round (Alg 3 lines 37-41).
	outs = append(outs, m.tryDecide()...)
	// Checkpoint plug-in: countersign proposals whose quorum evidence
	// just arrived in Ack_history.
	outs = append(outs, m.ckRetryPending()...)
	// RSM plug-in (Alg 7): newly satisfied confirmations.
	outs = append(outs, m.serveConfs()...)
	return outs
}

// tryDecide decides the largest quorum-committed round-r proposal that
// contains Decided_set.
func (m *Machine) tryDecide() []proto.Output {
	if m.state != Proposing {
		return nil
	}
	var best lattice.Set
	found := false
	for _, e := range m.tally.AtQuorum(m.r, m.quorum) {
		if m.decided.SubsetOf(e.Value) {
			if !found || best.Len() < e.Value.Len() {
				best = e.Value
				found = true
			}
		}
	}
	if !found {
		return nil
	}
	// The quorum value may have been acked before our latest install
	// (flat, or on an older or a peer's base): re-anchor it on our
	// certified base, or Decided_set would stay O(history) until the
	// next install.
	if base := m.CheckpointBase(); base != nil {
		best = best.TryRebase(base)
	}
	m.decided = best
	m.decSeq = append(m.decSeq, best)
	m.state = NewRound
	m.Emit(proto.DecideEvent{Proc: m.cfg.Self, Round: m.r, Value: best})
	if m.tracing() {
		m.trace(obs.EvDecide, m.r, "", fmt.Sprintf("len=%d", best.Len()))
	}
	m.maybeAutoAnchor()
	var outs []proto.Output
	for _, sub := range m.cfg.Subscribers {
		outs = append(outs, proto.Send(sub, msg.Decide{Value: best, Round: m.r}))
	}
	// Checkpoint trigger: the freshly decided value is quorum-committed
	// (it came out of an ack-quorum tally entry of this round), so it is
	// a valid checkpoint candidate the moment the window crosses the
	// configured thresholds.
	if m.ck != nil {
		m.trimDecSeq()
		if m.ck.ShouldInitiate(m.decided) {
			if prop, _, ok := m.ck.Initiate(m.decided, m.r); ok {
				outs = append(outs, proto.Bcast(prop))
			}
		}
	}
	outs = append(outs, m.maybeStartNext()...)
	return outs
}

// autoAnchorEvery is the decided-window growth (in items) that triggers
// a local re-anchoring of the machine's live sets on the decided prefix
// when certificate-backed compaction is disabled. The rewrite is pure
// representation — digests, lengths and message contents are unchanged
// — but it bounds the per-round set operations of the fold/tally hot
// loops to O(window) the same way a checkpoint install does, without
// signatures or protocol traffic: every Union/SubsetOf between two sets
// sharing the anchor runs on the windows alone. Correct replicas
// converge on the same decided prefixes, so their anchors coincide by
// content digest and cross-replica window operations stay O(window);
// when anchors transiently diverge the mixed-representation fallbacks
// keep everything correct, just slower.
const autoAnchorEvery = 128

// maybeAutoAnchor re-anchors the live sets on the current decided
// prefix once the window beyond the previous anchor has grown enough.
// With compaction enabled the certified installs already rewrite state,
// so the local anchor stays out of their way.
func (m *Machine) maybeAutoAnchor() {
	if m.ck != nil || m.decided.Len()-m.anchor.Len() < autoAnchorEvery {
		return
	}
	base := lattice.NewBase(m.decided)
	m.anchor = base
	m.decided = m.decided.TryRebase(base)
	m.proposed = m.proposed.TryRebase(base)
	m.accepted = m.accepted.TryRebase(base)
	m.svs.RebaseTail(base, 4)
}

// maxDecSeqCompacted bounds the retained decision log under
// compaction: the prefix of the log is subsumed by the checkpoint
// certificate, so only a recent window is kept (Decisions then returns
// that window).
const maxDecSeqCompacted = 16

func (m *Machine) trimDecSeq() {
	if len(m.decSeq) > maxDecSeqCompacted {
		m.decSeq = append([]lattice.Set(nil), m.decSeq[len(m.decSeq)-maxDecSeqCompacted:]...)
	}
}

// maybeStartNext starts round r+1 when there is a reason to: pending
// values, an observed disclosure for r+1, the MinRounds floor, or —
// crucial for Inclusivity — values of our own that no decision has
// covered yet (the paper's proposers never stop joining rounds, which is
// what lets Lemma 11's dissemination argument conclude; we only stop
// once nothing of ours is outstanding).
func (m *Machine) maybeStartNext() []proto.Output {
	if m.state != NewRound {
		return nil
	}
	next := m.r + 1
	if !m.pendingV.IsEmpty() || m.svs.Count(next) > 0 || next < m.cfg.MinRounds ||
		!m.proposed.SubsetOf(m.decided) {
		return m.startRound(next)
	}
	return nil
}

// onNack implements the proposer refinement (Alg 3 lines 28-33).
func (m *Machine) onNack(n msg.Nack) []proto.Output {
	merged := n.Accepted.Union(m.proposed)
	if merged.Equal(m.proposed) {
		return nil
	}
	m.proposed = merged
	m.ts++
	m.Emit(proto.RefineEvent{Proc: m.cfg.Self, Round: m.r, TS: m.ts})
	return []proto.Output{proto.Bcast(msg.AckReq{Proposed: m.proposed, TS: m.ts, Round: m.r})}
}

// confirmable implements the Alg 7 check plus its compaction
// extension: a value is confirmed when it appears quorum-many times in
// Ack_history, or when it is exactly a certified checkpoint prefix —
// the certificate is a transferable record of precisely that quorum,
// surviving the Ack_history trim.
func (m *Machine) confirmable(v lattice.Set) bool {
	if m.tally.AnyQuorumValue(v, m.quorum) {
		return true
	}
	if m.ck != nil {
		if base := m.ck.Base(); base != nil && base.Digest() == v.Digest() {
			return true
		}
	}
	return false
}

// onCnfReq implements the RSM confirmation plug-in (Alg 7): reply once
// the requested value appears quorum-many times in Ack_history.
func (m *Machine) onCnfReq(from ident.ProcessID, req msg.CnfReq) []proto.Output {
	if m.confirmable(req.Value) {
		return []proto.Output{proto.Send(from, msg.CnfRep{Value: req.Value})}
	}
	if len(m.confs) >= m.cfg.MaxPendingConf {
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: from, Kind: req.Kind(), Reason: "confirmation buffer full"})
		return nil
	}
	m.confs = append(m.confs, pendingConf{client: from, value: req.Value})
	return nil
}

// serveConfs replies to buffered confirmations that became satisfiable.
func (m *Machine) serveConfs() []proto.Output {
	var outs []proto.Output
	kept := m.confs[:0]
	for _, c := range m.confs {
		if m.confirmable(c.value) {
			outs = append(outs, proto.Send(c.client, msg.CnfRep{Value: c.value}))
			continue
		}
		kept = append(kept, c)
	}
	m.confs = kept
	return outs
}

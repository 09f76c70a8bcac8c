package sbs

import (
	"fmt"
	"sort"

	"bgla/internal/core"
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
	"bgla/internal/sig"
)

// GState is the proposer state of the generalized algorithm.
type GState int

// Generalized proposer states.
const (
	GNewRound GState = iota
	GInit
	GSafetying
	GProposing
)

// String implements fmt.Stringer.
func (s GState) String() string {
	switch s {
	case GNewRound:
		return "newround"
	case GInit:
		return "init"
	case GSafetying:
		return "safetying"
	case GProposing:
		return "proposing"
	default:
		return fmt.Sprintf("gstate(%d)", int(s))
	}
}

// GConfig configures one generalized SbS process.
type GConfig struct {
	Self ident.ProcessID
	N    int
	F    int
	// Keychain is the shared PKI.
	Keychain sig.Keychain
	// InitialValues seed the first batch.
	InitialValues []lattice.Item
	// MinRounds forces participation in rounds 0..MinRounds-1.
	MinRounds int
	// MaxRoundSkew bounds how far ahead of Safe_r an init value may be
	// before it is discarded (resource guard; 0 = 8).
	MaxRoundSkew int
	// MaxWaiting caps the buffered ack requests (0 = 8192).
	MaxWaiting int
}

type gPending struct {
	from ident.ProcessID
	req  msg.AckReqS
}

// GMachine is one generalized SbS process, implementing the §8.2
// variant: per-round init/safetying phases establish proofs of safety,
// acceptor acks are point-to-point and signed, and broadcast "decided"
// certificates replace the reliable broadcast of GWTS acks — the round
// r+1 is trusted only after a verified certificate for round r.
type GMachine struct {
	proto.Recorder
	cfg    GConfig
	quorum int
	crypto *Crypto

	// Proposer state.
	state    GState
	r        int
	ts       uint32
	pendingV lattice.Set
	proposed PVSet // cumulative proof-carrying proposal
	decided  lattice.Set
	decSeq   []lattice.Set

	safety    *SafetySet
	curSafety []msg.SignedValue                       // snapshot sent in the current SafeReq
	curKeys   []string                                // Keys(curSafety)
	safeAcks  map[int]map[ident.ProcessID]msg.SafeAck // round -> signer -> ack
	ackSigs   map[ident.ProcessID]msg.SignedAck       // current (ts, r) signed acks

	// Acceptor state.
	candidates *Candidates
	accepted   PVSet
	safeR      int
	certs      map[int]msg.DecidedCert

	waiting  []gPending
	rejected int
}

// NewG builds a generalized SbS machine.
func NewG(cfg GConfig) (*GMachine, error) {
	if err := core.ValidateConfig(cfg.N, cfg.F); err != nil {
		return nil, err
	}
	if cfg.Keychain == nil {
		return nil, fmt.Errorf("sbs: keychain required")
	}
	return NewGUnchecked(cfg), nil
}

// NewGUnchecked builds a machine without the resilience-bound check.
func NewGUnchecked(cfg GConfig) *GMachine {
	if cfg.MaxRoundSkew == 0 {
		cfg.MaxRoundSkew = 8
	}
	if cfg.MaxWaiting == 0 {
		cfg.MaxWaiting = 8192
	}
	quorum := core.AckQuorum(cfg.N, cfg.F)
	return &GMachine{
		cfg:        cfg,
		quorum:     quorum,
		crypto:     NewCrypto(cfg.Keychain, cfg.Self, quorum),
		state:      GNewRound,
		r:          -1,
		pendingV:   lattice.FromItems(cfg.InitialValues...),
		safety:     NewSafetySet(),
		safeAcks:   make(map[int]map[ident.ProcessID]msg.SafeAck),
		ackSigs:    make(map[ident.ProcessID]msg.SignedAck),
		candidates: NewCandidates(),
		certs:      make(map[int]msg.DecidedCert),
	}
}

// ID implements proto.Machine.
func (m *GMachine) ID() ident.ProcessID { return m.cfg.Self }

// State returns the proposer state.
func (m *GMachine) State() GState { return m.state }

// Round returns the current round.
func (m *GMachine) Round() int { return m.r }

// SafeRound returns the acceptor's certificate-derived Safe_r.
func (m *GMachine) SafeRound() int { return m.safeR }

// Decisions returns the decision sequence.
func (m *GMachine) Decisions() []lattice.Set { return m.decSeq }

// Decided returns the latest decision.
func (m *GMachine) Decided() lattice.Set { return m.decided }

// Rejected counts discarded messages.
func (m *GMachine) Rejected() int { return m.rejected }

// Start begins round 0 when there is anything to propose.
func (m *GMachine) Start() []proto.Output {
	if !m.pendingV.IsEmpty() || m.cfg.MinRounds > 0 {
		return m.startRound(0)
	}
	return nil
}

func (m *GMachine) startRound(round int) []proto.Output {
	m.state = GInit
	m.r = round
	batch := m.pendingV
	m.pendingV = lattice.Empty()
	m.Emit(proto.JoinRoundEvent{Proc: m.cfg.Self, Round: round})
	sv := m.crypto.SignValue(round, batch)
	m.safety.Add(sv)
	outs := []proto.Output{proto.Bcast(msg.InitVal{SV: sv})}
	// Others may have joined earlier: the init quorum can already hold.
	outs = append(outs, m.maybeEnterSafetying()...)
	return outs
}

// Handle implements proto.Machine.
func (m *GMachine) Handle(from ident.ProcessID, in msg.Msg) []proto.Output {
	switch v := in.(type) {
	case msg.NewValue:
		return m.onNewValue(v)
	case msg.InitVal:
		return m.onInit(v)
	case msg.SafeReq:
		return m.onSafeReq(from, v)
	case msg.SafeAck:
		return m.onSafeAck(from, v)
	case msg.AckReqS:
		return m.bufferReq(from, v)
	case msg.SignedAck:
		return m.onSignedAck(from, v)
	case msg.NackS:
		return m.onNack(from, v)
	case msg.DecidedCert:
		return m.onCert(v)
	case msg.Wakeup:
		return nil
	default:
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: from, Kind: in.Kind(), Reason: "unexpected kind"})
		return nil
	}
}

func (m *GMachine) onNewValue(v msg.NewValue) []proto.Output {
	it := v.Cmd
	if m.proposed.Plain().Contains(it) || m.pendingV.Contains(it) {
		return nil
	}
	m.pendingV = m.pendingV.Union(lattice.Singleton(it))
	if m.state == GNewRound {
		return m.startRound(m.r + 1)
	}
	return nil
}

func (m *GMachine) onInit(iv msg.InitVal) []proto.Output {
	sv := iv.SV
	if sv.Round < 0 || sv.Round > m.safeR+m.cfg.MaxRoundSkew || !m.crypto.VerifyValue(sv) {
		m.rejected++
		return nil
	}
	m.safety.Add(sv)
	if m.state == GNewRound && sv.Round == m.r+1 {
		return m.startRound(m.r + 1)
	}
	return m.maybeEnterSafetying()
}

// maybeEnterSafetying transitions Init -> Safetying once n-f init
// values of the current round are held (Alg 8 line 16 per round). The
// request content is snapshotted: late inits for the round keep landing
// in the safety set but safe_acks are matched against the frozen keys.
func (m *GMachine) maybeEnterSafetying() []proto.Output {
	if m.state != GInit || m.safety.LenRound(m.r) < m.cfg.N-m.cfg.F {
		return nil
	}
	m.state = GSafetying
	m.curSafety = m.safety.ValuesRound(m.r)
	m.curKeys = Keys(m.curSafety)
	return []proto.Output{proto.Bcast(msg.SafeReq{Round: m.r, Values: m.curSafety})}
}

func (m *GMachine) onSafeReq(from ident.ProcessID, req msg.SafeReq) []proto.Output {
	if req.Round < 0 {
		return nil
	}
	for _, sv := range req.Values {
		if sv.Round != req.Round || !m.crypto.VerifyValue(sv) {
			return nil
		}
	}
	conflicts := m.candidates.ConflictsWith(req.Values)
	ack := m.crypto.SignSafeAck(req.Round, Keys(req.Values), conflicts)
	m.candidates.Observe(req.Values)
	return []proto.Output{proto.Send(from, ack)}
}

func (m *GMachine) onSafeAck(from ident.ProcessID, sa msg.SafeAck) []proto.Output {
	if m.state != GSafetying || sa.Round != m.r || sa.Signer != from {
		return nil
	}
	if !sameKeys(sa.RcvdKeys, m.curKeys) || !m.crypto.VerifySafeAck(sa) {
		m.rejected++
		return nil
	}
	byRound := m.safeAcks[m.r]
	if byRound == nil {
		byRound = make(map[ident.ProcessID]msg.SafeAck)
		m.safeAcks[m.r] = byRound
	}
	byRound[from] = sa
	if len(byRound) < m.quorum {
		return nil
	}
	// Build proofs and move to proposing.
	var signers []ident.ProcessID
	for p := range byRound {
		signers = append(signers, p)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	proof := make([]msg.SafeAck, 0, len(signers))
	for _, p := range signers {
		proof = append(proof, byRound[p])
	}
	for _, sv := range m.curSafety {
		key := sv.ValueKey()
		conflicted := false
		for _, ack := range proof {
			if conflictListed(ack, key) {
				conflicted = true
				break
			}
		}
		if !conflicted {
			m.proposed = m.proposed.Insert(msg.ProofValue{SV: sv, Proof: proof})
		}
	}
	m.state = GProposing
	m.ts++
	for k := range m.ackSigs {
		delete(m.ackSigs, k)
	}
	outs := []proto.Output{proto.Bcast(msg.AckReqS{Round: m.r, Values: m.proposed.Items(), TS: m.ts})}
	// A certificate for this round may already be known: adopt it.
	outs = append(outs, m.tryAdoptCert()...)
	return outs
}

// bufferReq queues acceptor work gated on Safe_r (§8.2 round trust).
func (m *GMachine) bufferReq(from ident.ProcessID, req msg.AckReqS) []proto.Output {
	if req.Round < 0 {
		m.rejected++
		return nil
	}
	if len(m.waiting) >= m.cfg.MaxWaiting {
		m.rejected++
		m.Emit(proto.RejectEvent{Proc: m.cfg.Self, From: from, Kind: req.Kind(), Reason: "waiting buffer full"})
		return nil
	}
	m.waiting = append(m.waiting, gPending{from: from, req: req})
	return m.drainWaiting()
}

func (m *GMachine) drainWaiting() []proto.Output {
	var outs []proto.Output
	for {
		progressed := false
		kept := m.waiting[:0]
		for i, p := range m.waiting {
			if progressed {
				kept = append(kept, m.waiting[i:]...)
				break
			}
			if p.req.Round <= m.safeR {
				progressed = true
				outs = append(outs, m.acceptorOn(p.from, p.req)...)
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

// acceptorOn answers a trusted ack request with a signed ack or a
// proof-carrying nack, piggybacking the round's certificate if known.
func (m *GMachine) acceptorOn(from ident.ProcessID, req msg.AckReqS) []proto.Output {
	if !m.crypto.AllSafe(req.Values) {
		m.rejected++
		return nil
	}
	var outs []proto.Output
	rcvd := PVFromValues(req.Values...)
	if m.accepted.SubsetOf(rcvd) {
		m.accepted = rcvd
		outs = append(outs, proto.Send(from, m.crypto.SignAck(from, req.TS, req.Round, rcvd.Plain())))
	} else {
		outs = append(outs, proto.Send(from, msg.NackS{Round: req.Round, Values: m.accepted.Items(), TS: req.TS}))
		m.accepted = m.accepted.Union(rcvd)
	}
	if cert, ok := m.certs[req.Round]; ok {
		outs = append(outs, proto.Send(from, cert))
	}
	return outs
}

// onSignedAck collects the §8.2 point-to-point acks; a quorum yields a
// decided certificate that is broadcast before deciding.
func (m *GMachine) onSignedAck(from ident.ProcessID, a msg.SignedAck) []proto.Output {
	if m.state != GProposing || a.Round != m.r || a.TS != m.ts || a.Dest != m.cfg.Self {
		return nil
	}
	if a.Signer != from || !a.Accepted.Equal(m.proposed.Plain()) || !m.crypto.VerifyAck(a) {
		m.rejected++
		return nil
	}
	m.ackSigs[from] = a
	if len(m.ackSigs) < m.quorum {
		return nil
	}
	var signers []ident.ProcessID
	for p := range m.ackSigs {
		signers = append(signers, p)
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	acks := make([]msg.SignedAck, 0, len(signers))
	for _, p := range signers {
		acks = append(acks, m.ackSigs[p])
	}
	cert := msg.DecidedCert{Round: m.r, Value: m.proposed.Plain(), Acks: acks}
	outs := []proto.Output{proto.Bcast(cert)}
	outs = append(outs, m.onCert(cert)...) // record + decide locally
	return outs
}

// onCert verifies a decided certificate, advances Safe_r, and lets the
// proposer adopt the certified value for its current round.
func (m *GMachine) onCert(cert msg.DecidedCert) []proto.Output {
	if cert.Round < 0 {
		return nil
	}
	if _, known := m.certs[cert.Round]; !known {
		if !m.crypto.VerifyCert(cert) {
			m.rejected++
			return nil
		}
		m.certs[cert.Round] = cert
	}
	for {
		if _, ok := m.certs[m.safeR]; !ok {
			break
		}
		m.safeR++
	}
	var outs []proto.Output
	outs = append(outs, m.tryAdoptCert()...)
	outs = append(outs, m.drainWaiting()...)
	return outs
}

// tryAdoptCert decides the certified value of the current round when it
// preserves Local Stability.
func (m *GMachine) tryAdoptCert() []proto.Output {
	if m.state != GProposing {
		return nil
	}
	cert, ok := m.certs[m.r]
	if !ok || !m.decided.SubsetOf(cert.Value) {
		return nil
	}
	return m.decide(cert.Value)
}

func (m *GMachine) decide(v lattice.Set) []proto.Output {
	m.decided = v
	m.decSeq = append(m.decSeq, v)
	m.state = GNewRound
	m.Emit(proto.DecideEvent{Proc: m.cfg.Self, Round: m.r, Value: v})
	return m.maybeStartNext()
}

func (m *GMachine) maybeStartNext() []proto.Output {
	if m.state != GNewRound {
		return nil
	}
	next := m.r + 1
	if !m.pendingV.IsEmpty() || m.safety.LenRound(next) > 0 || next < m.cfg.MinRounds ||
		!m.proposed.Plain().SubsetOf(m.decided) {
		return m.startRound(next)
	}
	return nil
}

func (m *GMachine) onNack(from ident.ProcessID, n msg.NackS) []proto.Output {
	if m.state != GProposing || n.Round != m.r || n.TS != m.ts {
		return nil
	}
	rcvd := PVFromValues(n.Values...)
	merged := rcvd.Union(m.proposed)
	if merged.Equal(m.proposed) || !m.crypto.AllSafe(n.Values) {
		m.rejected++
		return nil
	}
	m.proposed = merged
	m.ts++
	for k := range m.ackSigs {
		delete(m.ackSigs, k)
	}
	m.Emit(proto.RefineEvent{Proc: m.cfg.Self, Round: m.r, TS: m.ts})
	return []proto.Output{proto.Bcast(msg.AckReqS{Round: m.r, Values: m.proposed.Items(), TS: m.ts})}
}

package compact

import (
	"bytes"
	"sync/atomic"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/sig"
)

// Config enables checkpointing for one replica.
type Config struct {
	Self ident.ProcessID
	N, F int
	// Keychain verifies peer countersignatures; Signer produces ours.
	Keychain sig.Keychain
	Signer   sig.Signer
	// Every triggers a checkpoint once the decided window beyond the
	// current base holds at least this many items (0 disables the count
	// trigger).
	Every int
	// Bytes triggers once the window's item bodies exceed this many
	// bytes (0 disables the byte trigger).
	Bytes int
}

// enabled reports whether any trigger is configured.
func (c Config) enabled() bool { return c.Every > 0 || c.Bytes > 0 }

// Install is a verified checkpoint ready to be applied to machine
// state: the certificate, the full prefix value, and the shared Base
// to re-anchor live sets on.
type Install struct {
	Cert  msg.CkptCert
	Value lattice.Set
	Base  *lattice.Base
}

// Stats are the tracker's atomic activity counters, safe to read from
// any goroutine while the machine runs.
type Stats struct {
	// Installs counts checkpoints adopted (locally assembled or
	// received); Epoch is the current one; BaseLen the prefix size.
	Installs int64
	Epoch    int64
	BaseLen  int64
	// SigsIssued counts countersignatures we produced; CertsBuilt the
	// certificates we assembled as initiator.
	SigsIssued int64
	CertsBuilt int64
	// TransfersServed / TransfersReceived count state-transfer
	// replies sent to and installs completed from StateRep messages;
	// TransfersRequested counts the state_req round-trips we initiated
	// (a restarted replica with an intact local disk should need none —
	// internal/wal).
	TransfersServed    int64
	TransfersReceived  int64
	TransfersRequested int64
}

// sigKey identifies an issued countersignature.
type sigKey struct {
	dig   lattice.Digest
	round int
}

// collector gathers countersignatures for one proposal we initiated.
type collector struct {
	epoch, round, length int
	dig                  lattice.Digest
	image                []byte
	sigs                 map[ident.ProcessID]msg.CkptSig
	done                 bool
}

// Lookup resolves a quorum-committed value by content digest and the
// round it legitimately ended; the GWTS machine backs it with its
// Ack_history tally.
type Lookup func(dig lattice.Digest, round int) (lattice.Set, bool)

// maxPendingProps bounds buffered proposals whose local quorum
// evidence has not arrived yet.
const maxPendingProps = 64

// imageMemoSize is how many (value, image) pairs a tracker remembers
// between installs: one checkpoint is normally hashed at initiate or
// countersign time and again at install, for the same value.
const imageMemoSize = 4

// hashedImage is one ImageHash result and the set it was computed from.
type hashedImage struct {
	v     lattice.Set
	image []byte
}

// Tracker is the per-replica checkpoint state machine. All methods
// except Stats must be called from the owning protocol machine's
// driver goroutine.
type Tracker struct {
	cfg    Config
	base   *lattice.Base
	cert   msg.CkptCert
	hasCrt bool
	epoch  int

	proposed map[lattice.Digest]bool
	// signed caches the countersignatures we issued, keyed by (digest,
	// round): the preimage is initiator-independent, so one signature
	// serves every proposer of the same (value, round) pair, while a
	// proposal for the same value at a different legitimate round is
	// signed separately (replicas can observe the commit at different
	// rounds; both statements are true).
	signed  map[sigKey]msg.CkptSig
	collect map[lattice.Digest]*collector
	pending []msg.CkptProp

	// images remembers the prefixes hashed since the last install (ring
	// of imageMemoSize); imageNext is the slot to overwrite next.
	images    [imageMemoSize]hashedImage
	imageNext int

	stInstalls, stSigs, stCerts, stServed, stReceived atomic.Int64
	stRequested, stEpoch, stBaseLen                   atomic.Int64
}

// NewTracker builds a tracker; it returns nil when cfg has no trigger,
// which callers treat as "compaction disabled".
func NewTracker(cfg Config) *Tracker {
	if !cfg.enabled() {
		return nil
	}
	if cfg.Keychain != nil {
		// Digest-keyed verified-signature cache: re-delivered
		// countersignatures and certificates (retries, gossip overlap,
		// Byzantine replays) cost a hash lookup, not a curve operation.
		cfg.Keychain = sig.NewCache(cfg.Keychain, 0)
	}
	return &Tracker{
		cfg:      cfg,
		proposed: make(map[lattice.Digest]bool),
		signed:   make(map[sigKey]msg.CkptSig),
		collect:  make(map[lattice.Digest]*collector),
	}
}

// Base returns the current certified prefix (nil before the first
// install).
func (t *Tracker) Base() *lattice.Base { return t.base }

// BaseLen returns the prefix size.
func (t *Tracker) BaseLen() int { return t.base.Len() }

// Epoch returns the number of checkpoints installed.
func (t *Tracker) Epoch() int { return t.epoch }

// Cert returns the current base's certificate.
func (t *Tracker) Cert() (msg.CkptCert, bool) { return t.cert, t.hasCrt }

// Stats snapshots the counters (safe from any goroutine).
func (t *Tracker) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Installs: t.stInstalls.Load(), Epoch: t.stEpoch.Load(), BaseLen: t.stBaseLen.Load(),
		SigsIssued: t.stSigs.Load(), CertsBuilt: t.stCerts.Load(),
		TransfersServed: t.stServed.Load(), TransfersReceived: t.stReceived.Load(),
		TransfersRequested: t.stRequested.Load(),
	}
}

// NoteStateReq counts a state-transfer request the owning machine is
// about to send (it could not resolve a verified certificate's prefix
// from local state).
func (t *Tracker) NoteStateReq() {
	if t != nil {
		t.stRequested.Add(1)
	}
}

// ShouldInitiate reports whether the decided window beyond the current
// base has crossed a configured threshold.
func (t *Tracker) ShouldInitiate(decided lattice.Set) bool {
	window := decided.Len() - t.BaseLen()
	if window <= 0 {
		return false
	}
	if t.cfg.Every > 0 && window >= t.cfg.Every {
		return true
	}
	if t.cfg.Bytes > 0 {
		if t.base == nil {
			// Before the first checkpoint everything decided is window;
			// the walk early-stops at the threshold, so the pre-install
			// scan is O(threshold), not O(history).
			b := 0
			decided.Each(func(it lattice.Item) bool {
				b += len(it.Body)
				return b < t.cfg.Bytes
			})
			return b >= t.cfg.Bytes
		}
		if dig, _, ok := decided.BaseInfo(); ok && dig == t.base.Digest() {
			b := 0
			for _, it := range decided.Window() {
				b += len(it.Body)
			}
			return b >= t.cfg.Bytes
		}
	}
	return false
}

// Initiate proposes checkpointing the freshly decided, quorum-committed
// value (caller guarantees commitment — it just decided it from an
// ack-quorum tally entry of the given round). It returns the proposal
// to broadcast plus our own countersignature, seeding the collector.
func (t *Tracker) Initiate(decided lattice.Set, round int) (msg.CkptProp, msg.CkptSig, bool) {
	dig := decided.Digest()
	if decided.Len() <= t.BaseLen() || t.proposed[dig] {
		return msg.CkptProp{}, msg.CkptSig{}, false
	}
	t.proposed[dig] = true
	epoch := t.epoch + 1
	image := t.imageOf(decided)
	own := Sign(t.cfg.Signer, epoch, round, decided.Len(), dig, image)
	t.stSigs.Add(1)
	t.signed[sigKey{dig: dig, round: round}] = own
	t.collect[dig] = &collector{
		epoch: epoch, round: round, length: decided.Len(), dig: dig, image: image,
		sigs: map[ident.ProcessID]msg.CkptSig{t.cfg.Self: own},
	}
	prop := msg.CkptProp{Epoch: epoch, Round: round, Len: decided.Len(), Dig: dig, From: t.cfg.Self}
	return prop, own, true
}

// OnProp buffers a peer's checkpoint proposal; countersignatures are
// issued by RetryPending once our own Ack_history shows the value at
// ack quorum in the proposal's round and that round is within our
// Safe_r (we deem it legitimately ended). Lemma 12 filtering is
// inherited: our tally only ever holds values our acceptor deemed
// SAFE, so we never countersign a prefix containing undisclosed items.
// The caller must overwrite p.From with the authenticated transport
// sender before calling.
func (t *Tracker) OnProp(p msg.CkptProp) {
	if p.Len <= t.BaseLen() || p.Round < 0 || len(t.pending) >= maxPendingProps {
		return
	}
	for _, q := range t.pending {
		if q.Dig == p.Dig && q.Round == p.Round && q.From == p.From {
			return
		}
	}
	t.pending = append(t.pending, p)
}

// OutSig is a countersignature addressed to the proposal's initiator.
type OutSig struct {
	To  ident.ProcessID
	Sig msg.CkptSig
}

// RetryPending re-evaluates buffered proposals against the current
// Ack_history and Safe_r, emitting countersignatures for the ones that
// became satisfiable.
func (t *Tracker) RetryPending(lookup Lookup, safeR int) []OutSig {
	if len(t.pending) == 0 {
		return nil
	}
	var out []OutSig
	kept := t.pending[:0]
	for _, p := range t.pending {
		if p.Len <= t.BaseLen() {
			continue // stale: a newer base already covers it
		}
		if s, done := t.signed[sigKey{dig: p.Dig, round: p.Round}]; done {
			// Already signed this (value, round) — possibly as
			// initiator: the preimage is initiator-independent, so the
			// cached countersignature serves every proposer of it.
			if s.Len == p.Len {
				out = append(out, OutSig{To: p.From, Sig: s})
			}
			continue
		}
		v, ok := lookup(p.Dig, p.Round)
		if !ok || p.Round > safeR || v.Len() != p.Len {
			kept = append(kept, p)
			continue
		}
		s := Sign(t.cfg.Signer, p.Epoch, p.Round, p.Len, p.Dig, t.imageOf(v))
		t.signed[sigKey{dig: p.Dig, round: p.Round}] = s
		t.stSigs.Add(1)
		out = append(out, OutSig{To: p.From, Sig: s})
	}
	t.pending = kept
	return out
}

// OnSig collects a countersignature for a proposal we initiated; at
// 2f+1 distinct valid signatures it assembles the certificate.
func (t *Tracker) OnSig(from ident.ProcessID, s msg.CkptSig) (msg.CkptCert, bool) {
	c := t.collect[s.Dig]
	if c == nil || c.done || s.Round != c.round || s.Len != c.length || !bytes.Equal(s.Image, c.image) {
		return msg.CkptCert{}, false
	}
	if s.Signer != from || s.Signer < 0 || int(s.Signer) >= t.cfg.N {
		return msg.CkptCert{}, false
	}
	pre := Preimage(s.Round, s.Len, s.Dig, s.Image)
	if !t.cfg.Keychain.Verify(s.Signer, pre, s.Sig) {
		return msg.CkptCert{}, false
	}
	c.sigs[s.Signer] = s
	if len(c.sigs) < CertQuorum(t.cfg.F) {
		return msg.CkptCert{}, false
	}
	c.done = true
	cert := msg.CkptCert{Epoch: c.epoch, Round: c.round, Len: c.length, Dig: c.dig, Image: c.image}
	for _, id := range ident.Range(t.cfg.N) {
		if sg, ok := c.sigs[id]; ok {
			cert.Sigs = append(cert.Sigs, sg)
		}
	}
	t.stCerts.Add(1)
	return cert, true
}

// OnCert handles a received (or locally assembled) certificate. When
// the prefix value is locally resolvable the verified Install is
// returned; when it is not — a lagging or restarted replica —
// needState reports that the caller should request a state transfer
// from the cert's sender.
func (t *Tracker) OnCert(c msg.CkptCert, resolve func(dig lattice.Digest) (lattice.Set, bool)) (*Install, bool) {
	if c.Len <= t.BaseLen() {
		return nil, false // stale: our base already covers it
	}
	if !VerifyCert(t.cfg.Keychain, t.cfg.N, t.cfg.F, c) {
		return nil, false
	}
	v, ok := resolve(c.Dig)
	if !ok {
		return nil, true
	}
	return t.verifyValue(c, v), false
}

// OnStateReq serves a state-transfer request with our current
// certified base. The requested digest is a hint, not a filter: if we
// have moved past it the newest checkpoint is strictly more useful to
// the requester (certificates are self-verifying and installs are
// ordered by length, so an unexpected reply can never regress the
// receiver).
func (t *Tracker) OnStateReq(req msg.StateReq) (msg.StateRep, bool) {
	if !t.hasCrt || t.base == nil {
		return msg.StateRep{}, false
	}
	t.stServed.Add(1)
	return msg.StateRep{Cert: t.cert, Value: t.base.Set()}, true
}

// OnStateRep verifies a transferred prefix against its certificate
// (signature quorum, content digest, length, folded image hash) and
// returns the Install. A tampered value cannot pass: the digest and
// image are both bound into every countersignature's preimage.
func (t *Tracker) OnStateRep(rep msg.StateRep) *Install {
	if rep.Cert.Len <= t.BaseLen() {
		return nil
	}
	if !VerifyCert(t.cfg.Keychain, t.cfg.N, t.cfg.F, rep.Cert) {
		return nil
	}
	inst := t.verifyValue(rep.Cert, rep.Value)
	if inst != nil {
		t.stReceived.Add(1)
	}
	return inst
}

// verifyValue binds a resolved value to a verified certificate.
func (t *Tracker) verifyValue(c msg.CkptCert, v lattice.Set) *Install {
	if v.Digest() != c.Dig || v.Len() != c.Len {
		return nil
	}
	if !bytes.Equal(t.imageOf(v), c.Image) {
		return nil
	}
	// A certified prefix is quorum-committed, hence comparable with our
	// current (also quorum-committed) base; anything else indicates a
	// digest collision or a broken signer quorum — reject. A value
	// anchored on our own base object contains it by construction;
	// any other shape is checked on the items.
	if t.base != nil && v.Anchor() != t.base && !t.base.Set().SubsetOf(v) {
		return nil
	}
	return &Install{Cert: c, Value: v, Base: lattice.NewBase(v)}
}

// imageOf returns ImageHash(v), reusing a remembered image only when
// lattice.SameItems proves v holds exactly the items it was computed
// from; a digest match alone never suffices.
func (t *Tracker) imageOf(v lattice.Set) []byte {
	for _, e := range t.images {
		if e.image != nil && lattice.SameItems(e.v, v) {
			return e.image
		}
	}
	image := ImageHash(v)
	t.images[t.imageNext] = hashedImage{v: v, image: image}
	t.imageNext = (t.imageNext + 1) % imageMemoSize
	return image
}

// ApplyInstall adopts a verified checkpoint: the new base becomes the
// certified prefix and stale collection state is dropped.
func (t *Tracker) ApplyInstall(inst *Install) {
	t.base = inst.Base
	t.cert = inst.Cert
	t.hasCrt = true
	t.epoch++
	if inst.Cert.Epoch > t.epoch {
		t.epoch = inst.Cert.Epoch
	}
	baseLen := t.BaseLen()
	for dig, c := range t.collect {
		if c.length <= baseLen {
			delete(t.collect, dig)
		}
	}
	for dig := range t.proposed {
		delete(t.proposed, dig)
	}
	for k := range t.signed {
		delete(t.signed, k)
	}
	t.images = [imageMemoSize]hashedImage{}
	kept := t.pending[:0]
	for _, p := range t.pending {
		if p.Len > baseLen {
			kept = append(kept, p)
		}
	}
	t.pending = kept
	t.stInstalls.Add(1)
	t.stEpoch.Store(int64(t.epoch))
	t.stBaseLen.Store(int64(baseLen))
}

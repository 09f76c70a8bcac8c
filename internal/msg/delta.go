package msg

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bgla/internal/lattice"
)

// This file implements the delta-aware wire codec. Lattice values are
// monotone joins of known components (Accepted_set and Decided_set only
// ever grow), so once a peer has seen a set, every later set extending
// it can travel as (base digest, delta items) instead of the full
// O(history) item list. The codec is transparent to the protocol
// machines: DeltaEncoder rewrites a message's dominant lattice set into
// a delta frame against a per-peer cache of recently transmitted sets,
// and DeltaDecoder reconstructs the original typed message on the far
// side. When the receiver cannot resolve a base digest (restart,
// eviction, divergence) it answers with a DeltaNack and the sender
// automatically retransmits that frame with the full set. Messages
// without a lattice set travel as plain binary frames.

// Delta codec wire kinds.
const (
	// KindDeltaFrame wraps an inner frame whose primary lattice set
	// travels delta- or full-encoded alongside it.
	KindDeltaFrame Kind = "delta.frame"
	// KindDeltaNack is the transport-level "unknown base" reply that
	// triggers the full-set fallback for one frame.
	KindDeltaNack Kind = "delta.nack"
)

// DeltaNack asks the sender to retransmit frame Seq with the full set:
// the receiver could not reconstruct it (base digest unknown or the
// reconstruction's digest diverged from the declared one).
type DeltaNack struct {
	Seq uint64
}

// Kind implements Msg.
func (DeltaNack) Kind() Kind { return KindDeltaNack }

// PrimarySet extracts the dominant lattice set of a message — the one
// that grows with history and is worth delta-encoding. RBC wrappers
// recurse into their payload (GWTS acceptor acks travel inside Bracha
// echo storms, which is where full-set retransmission hurt most).
func PrimarySet(m Msg) (lattice.Set, bool) {
	switch v := m.(type) {
	case Disclosure:
		return v.Value, true
	case AckReq:
		return v.Proposed, true
	case Ack:
		return v.Accepted, true
	case Nack:
		return v.Accepted, true
	case AckB:
		return v.Accepted, true
	case Decide:
		return v.Value, true
	case CnfReq:
		return v.Value, true
	case CnfRep:
		return v.Value, true
	case SignedAck:
		return v.Accepted, true
	case DecidedCert:
		return v.Value, true
	case StateRep:
		return v.Value, true
	case RBCSend:
		return PrimarySet(v.Payload)
	case RBCEcho:
		return PrimarySet(v.Payload)
	case RBCReady:
		return PrimarySet(v.Payload)
	case ShardMsg:
		return PrimarySet(v.Inner)
	default:
		return lattice.Set{}, false
	}
}

// WithPrimarySet returns a copy of m with its primary set replaced; it
// is the inverse of stripping the set into a delta frame's sidecar.
func WithPrimarySet(m Msg, s lattice.Set) Msg {
	switch v := m.(type) {
	case Disclosure:
		v.Value = s
		return v
	case AckReq:
		v.Proposed = s
		return v
	case Ack:
		v.Accepted = s
		return v
	case Nack:
		v.Accepted = s
		return v
	case AckB:
		v.Accepted = s
		return v
	case Decide:
		v.Value = s
		return v
	case CnfReq:
		v.Value = s
		return v
	case CnfRep:
		v.Value = s
		return v
	case SignedAck:
		v.Accepted = s
		return v
	case DecidedCert:
		v.Value = s
		return v
	case StateRep:
		v.Value = s
		return v
	case RBCSend:
		v.Payload = WithPrimarySet(v.Payload, s)
		return v
	case RBCEcho:
		v.Payload = WithPrimarySet(v.Payload, s)
		return v
	case RBCReady:
		v.Payload = WithPrimarySet(v.Payload, s)
		return v
	case ShardMsg:
		v.Inner = WithPrimarySet(v.Inner, s)
		return v
	default:
		return m
	}
}

// Codec capacity bounds (per peer). Anchors are candidate delta bases
// kept on the sender; recent frames are retained for DeltaNack
// retransmission; the decoder cache holds reconstructed sets. recent
// must only cover the frames that can still be in flight when a nack
// arrives: the decoder cache (maxDecodeCache sets) dwarfs the anchor
// ring (maxAnchors), so in-protocol nacks are essentially impossible
// and the retransmission buffer is a restart-robustness net, not a hot
// path — keeping it small bounds the history-sized sets it pins.
const (
	maxAnchors      = 4
	maxRecent       = 128
	maxDecodeCache  = 64
	maxDecodeWindow = 1024 // a decoder with no base to follow re-anchors here
)

// DeltaEncoder is the sending half of the codec for one peer. It is
// safe for concurrent use, but the base-chain on the wire is only
// coherent when Encode calls happen in transmission order — encode
// frames where writes are serialized (tcpnet encodes in the per-peer
// send loop, immediately before each write).
type DeltaEncoder struct {
	mu      sync.Mutex
	seq     uint64
	anchors []lattice.Set // newest first, candidate delta bases
	pinned  lattice.Set   // newest transmitted checkpoint prefix: a persistent base
	recent  map[uint64]Msg
	order   []uint64       // FIFO over recent
	scratch []lattice.Item // delta of the frame being encoded

	nDelta, nFull atomic.Int64 // primary-set frames by encoding chosen

	// anchor is the deepest base of any set transmitted: the certified
	// prefix the local machine currently anchors its sets on.
	anchor atomic.Pointer[lattice.Base]
}

// NewDeltaEncoder returns an encoder with an empty base cache.
func NewDeltaEncoder() *DeltaEncoder {
	return &DeltaEncoder{recent: make(map[uint64]Msg)}
}

// Reset forgets every anchor, forcing full transmission until a new
// base chain is established. The transport calls it on every (re)dial:
// frames encoded after a reconnect are then self-contained, so a
// restarted receiver is never left waiting on bases it missed.
func (e *DeltaEncoder) Reset() {
	e.mu.Lock()
	e.anchors = nil
	e.pinned = lattice.Empty()
	e.mu.Unlock()
}

// Encode serializes m for the peer, delta-encoding its primary set when
// a cached base allows it. Messages without a primary set travel as
// plain binary frames.
func (e *DeltaEncoder) Encode(m Msg) ([]byte, error) {
	return e.AppendEncode(nil, m, true)
}

// AppendEncode appends m's frame to dst as Encode does. bin must be
// true: the binary codec is the only encoding.
func (e *DeltaEncoder) AppendEncode(dst []byte, m Msg, bin bool) ([]byte, error) {
	if !bin {
		return nil, errors.New("msg: the binary codec is the only wire encoding")
	}
	set, ok := PrimarySet(m)
	if !ok {
		return AppendBinary(dst, m)
	}
	if b := set.Anchor(); b.Len() > e.anchor.Load().Len() {
		e.anchor.Store(b)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	seq := e.seq
	base, delta, haveBase := e.bestBaseLocked(set)
	if haveBase {
		// Only delta frames can be nacked (full frames are
		// self-contained), so only they occupy retransmission slots.
		e.rememberLocked(seq, m)
		e.nDelta.Add(1)
	} else {
		e.nFull.Add(1)
	}
	e.pushAnchorLocked(set)
	if _, ok := m.(StateRep); ok {
		// The checkpoint prefix just went over in full: rebase this
		// link's delta chain onto it permanently. Steady-state window
		// traffic is a small delta against the newest checkpoint, and
		// unlike ring anchors the pin survives unrelated transmissions.
		e.pinned = set
	}
	dst = append(dst, BinMagic, binDeltaFrame)
	dst = appendUvarint(dst, seq)
	var err error
	dst, err = appendBinary(dst, m, true)
	if err != nil {
		return nil, err
	}
	if haveBase {
		bd := base.Digest()
		dst = append(dst, 1)
		dst = append(dst, bd[:]...)
		dst = appendItems(dst, delta)
	} else {
		dst = append(dst, 0)
		dst = appendSet(dst, set)
	}
	sd := set.Digest()
	return append(dst, sd[:]...), nil
}

// Frames reports how many primary-set frames were delta-encoded vs
// sent as self-contained full sets (the fallback path: no usable base,
// a fresh connection, or a post-nack reset). Safe from any goroutine.
func (e *DeltaEncoder) Frames() (delta, full int64) {
	return e.nDelta.Load(), e.nFull.Load()
}

// HandleNack surrenders the nacked frame's message for retransmission,
// reporting whether it was still retained. The anchor cache is dropped
// — the receiver evidently cannot resolve our bases — so re-encoding
// the returned message (and everything after it) starts a fresh,
// self-contained base chain.
func (e *DeltaEncoder) HandleNack(nk DeltaNack) (Msg, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	m, ok := e.recent[nk.Seq]
	if !ok {
		return nil, false
	}
	delete(e.recent, nk.Seq)
	e.anchors = nil
	e.pinned = lattice.Empty()
	return m, true
}

// bestBaseLocked picks the largest cached anchor (or the pin) that is a
// subset of set — a valid delta base — and returns it with the delta
// against it, which lives in e.scratch until the next call. Candidates
// are tried largest first, so the first hit is final. An anchor with
// set's own digest (the RBC echo/ready storm re-sends one payload set
// many times) hits in O(1) with an empty delta; empty anchors are never
// worth referencing.
func (e *DeltaEncoder) bestBaseLocked(set lattice.Set) (lattice.Set, []lattice.Item, bool) {
	var cands [maxAnchors + 1]lattice.Set
	n := copy(cands[:], e.anchors)
	cands[n] = e.pinned
	slices.SortStableFunc(cands[:n+1], func(a, b lattice.Set) int { return b.Len() - a.Len() })
	for _, a := range cands[:n+1] {
		if a.IsEmpty() || a.Len() > set.Len() {
			continue
		}
		if delta, ok := set.AppendDelta(e.scratch[:0], a); ok {
			e.scratch = delta[:0]
			return a, delta, true
		}
	}
	return lattice.Set{}, nil, false
}

func (e *DeltaEncoder) pushAnchorLocked(set lattice.Set) {
	if set.IsEmpty() {
		return // bestBaseLocked never uses ⊥; don't waste a slot on it
	}
	for i, a := range e.anchors {
		if a.Digest() == set.Digest() {
			// Refresh recency instead of duplicating.
			copy(e.anchors[1:i+1], e.anchors[:i])
			e.anchors[0] = set
			return
		}
	}
	if len(e.anchors) < maxAnchors {
		e.anchors = append(e.anchors, lattice.Set{})
	}
	copy(e.anchors[1:], e.anchors) // shift in place; the oldest falls off
	e.anchors[0] = set
}

func (e *DeltaEncoder) rememberLocked(seq uint64, m Msg) {
	e.recent[seq] = m
	e.order = append(e.order, seq)
	for len(e.order) > maxRecent {
		delete(e.recent, e.order[0])
		e.order = e.order[1:]
	}
}

// DeltaDecoder is the receiving half of the codec for one peer: a
// bounded cache of reconstructed sets keyed by digest. Safe for
// concurrent use (a peer may hold several inbound connections).
type DeltaDecoder struct {
	mu     sync.Mutex
	cache  map[lattice.Digest]lattice.Set
	order  []lattice.Digest
	follow *DeltaEncoder
}

// NewDeltaDecoder returns a decoder with an empty base cache.
func NewDeltaDecoder() *DeltaDecoder {
	return &DeltaDecoder{cache: make(map[lattice.Digest]lattice.Set)}
}

// Follow keeps the sets this decoder reconstructs anchored where the
// local machine anchors its own — the deepest base e has transmitted —
// instead of flat. The machine adopts and re-sends what comes off the
// wire, so with one representation per link ApplyDelta, the machine's
// lattice operations and e's AppendDelta all run on windows; a flat set
// meeting an anchored one walks the whole history each time.
func (d *DeltaDecoder) Follow(e *DeltaEncoder) { d.follow = e }

// Reset drops every cached base, as a decoder restart would; frames
// referencing forgotten bases fall back via DeltaNack.
func (d *DeltaDecoder) Reset() {
	d.mu.Lock()
	d.cache = make(map[lattice.Digest]lattice.Set)
	d.order = nil
	d.mu.Unlock()
}

// Decode parses a binary frame from the peer. Plain frames decode
// directly. For delta frames it reconstructs the primary set from the
// cached base; when the base is unknown or the reconstruction's digest
// diverges it returns (nil, nack, nil) and the caller must transmit the
// nack back to the sender, which replies with a full-set
// retransmission of the same frame.
func (d *DeltaDecoder) Decode(data []byte) (Msg, *DeltaNack, error) {
	if len(data) < 2 || data[0] != BinMagic || data[1] != binDeltaFrame {
		m, err := DecodeBinary(data)
		return m, nil, err
	}
	r := &binReader{b: data, off: 2}
	seq := r.uvarint("delta frame seq")
	inner := r.msg()
	if r.err != nil {
		return nil, nil, r.err
	}
	if _, ok := PrimarySet(inner); !ok {
		return nil, nil, fmt.Errorf("msg: delta frame around %s, which carries no set", inner.Kind())
	}
	if r.rem() < 1 {
		return nil, nil, errors.New("msg: binary delta frame: missing base flag")
	}
	flag := r.b[r.off]
	r.off++
	var baseDig lattice.Digest
	switch flag {
	case 0:
	case 1:
		baseDig = r.digest("delta base")
	default:
		return nil, nil, fmt.Errorf("msg: binary delta frame: base flag %d", flag)
	}
	items := r.items("delta items")
	want := r.digest("delta dig")
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.off != len(data) {
		return nil, nil, fmt.Errorf("msg: binary delta frame: %d trailing bytes", len(data)-r.off)
	}
	var set lattice.Set
	if flag == 0 {
		set = lattice.FromItems(items...)
	} else {
		d.mu.Lock()
		base, ok := d.cache[baseDig]
		d.mu.Unlock()
		if !ok {
			return nil, &DeltaNack{Seq: seq}, nil
		}
		set = lattice.ApplyDelta(base, items)
		if set.Digest() != want {
			// Divergent reconstruction: ask for the full set rather than
			// deliver a value the sender did not mean.
			return nil, &DeltaNack{Seq: seq}, nil
		}
	}
	return WithPrimarySet(inner, d.remember(set)), nil, nil
}

// remember caches a reconstructed set as a future delta base and
// returns the representation to deliver: the cached one when the set is
// known, else set re-anchored on the followed encoder's base where that
// base is contained in it.
func (d *DeltaDecoder) remember(set lattice.Set) lattice.Set {
	dig := set.Digest()
	d.mu.Lock()
	defer d.mu.Unlock()
	if known, dup := d.cache[dig]; dup {
		return known
	}
	var a *lattice.Base
	if d.follow != nil {
		a = d.follow.anchor.Load()
	}
	if a == nil && set.WindowLen() >= maxDecodeWindow {
		a = lattice.NewBase(set) // nothing to follow: anchor the chain on itself
	}
	if a != nil && set.Anchor() != a {
		if on, ok := set.Rebase(a); ok {
			set = on
		}
	}
	d.cache[dig] = set
	d.order = append(d.order, dig)
	for len(d.order) > maxDecodeCache {
		delete(d.cache, d.order[0])
		d.order = d.order[1:]
	}
	return set
}

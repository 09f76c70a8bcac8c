// Package rbc implements Byzantine reliable broadcast (Bracha 1987,
// the paper's references [12,13,14]) as an embeddable component: host
// machines route rbc.* wire messages into a Peer and drain validated
// deliveries. With n >= 3f+1 the primitive guarantees:
//
//   - Validity: if a correct process broadcasts (tag, payload), every
//     correct process eventually delivers it;
//   - Agreement: no two correct processes deliver different payloads for
//     the same (src, tag) — this is what stops a Byzantine proposer from
//     disclosing different values to different processes (§5);
//   - Totality: if any correct process delivers, all correct processes
//     eventually deliver;
//   - Authenticity: a delivery attributed to src required src's own
//     send on an authenticated link (spoofed RBCSend is rejected).
//
// Under the unit-delay network a broadcast costs three message delays
// (send, echo, ready) and O(n²) messages, the figures used in the
// complexity accounting of §5.1.3 and §6.4.
package rbc

import (
	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/proto"
)

// Delivery is a validated reliable-broadcast delivery.
type Delivery struct {
	Src     ident.ProcessID
	Tag     string
	Payload msg.Msg
}

type instKey struct {
	src ident.ProcessID
	tag string
}

// payloadID is a payload's identity within an instance. The two
// payloads GWTS broadcasts are keyed by their structural fields and the
// content digest of their set, the fields msg.PayloadKey encodes, so
// distinct payloads differ under the same digest collision-resistance
// assumption; any other kind falls back to its PayloadKey string.
type payloadID struct {
	kind  msg.Kind
	dest  ident.ProcessID
	ts    uint32
	round int
	dig   lattice.Digest
	key   string
}

func idOf(m msg.Msg) payloadID {
	switch v := m.(type) {
	case msg.Disclosure:
		return payloadID{kind: msg.KindDisclosure, round: v.Round, dig: v.Value.Digest()}
	case msg.AckB:
		return payloadID{kind: msg.KindAckB, dest: v.Dest, ts: v.TS, round: v.Round, dig: v.Accepted.Digest()}
	default:
		return payloadID{kind: m.Kind(), key: msg.PayloadKey(m)}
	}
}

// candidate is one payload seen in an instance with the processes
// whose echo and ready counted for it.
type candidate struct {
	id      payloadID
	payload msg.Msg
	echoes  ident.Set
	readies ident.Set
}

// instance tracks one (src, tag) broadcast. Only a process's first echo
// and first ready count (Bracha's rule), so cands holds at most 2n
// payloads and a linear scan finds one.
type instance struct {
	sentEcho  bool
	sentReady bool
	delivered bool
	cands     []candidate
}

// votes returns the ready senders of c when ready is set, else its
// echo senders.
func (c *candidate) votes(ready bool) *ident.Set {
	if ready {
		return &c.readies
	}
	return &c.echoes
}

// counted reports whether from's echo (ready=false) or ready already
// counted for some payload of the instance.
func (in *instance) counted(from ident.ProcessID, ready bool) bool {
	for i := range in.cands {
		if in.cands[i].votes(ready).Has(from) {
			return true
		}
	}
	return false
}

// candidate returns the entry for payload, adding it when new.
func (in *instance) candidate(payload msg.Msg) *candidate {
	id := idOf(payload)
	for i := range in.cands {
		if in.cands[i].id == id {
			return &in.cands[i]
		}
	}
	in.cands = append(in.cands, candidate{id: id, payload: payload})
	return &in.cands[len(in.cands)-1]
}

// Peer is the reliable-broadcast endpoint of one process. It is not
// goroutine-safe; the owning machine serializes access.
type Peer struct {
	self ident.ProcessID
	n, f int

	// maxTagsPerSrc caps concurrently tracked instances per source as a
	// resource-exhaustion guard against Byzantine tag spam (0 = off).
	maxTagsPerSrc int

	insts      map[instKey]*instance
	tagsPerSrc []int // instances per source, kept while the cap is on
	deliveries []Delivery
	rejected   int
}

// NewPeer builds the endpoint of process self in a system of n
// processes tolerating f Byzantine ones.
func NewPeer(self ident.ProcessID, n, f int) *Peer {
	return &Peer{
		self:  self,
		n:     n,
		f:     f,
		insts: make(map[instKey]*instance),
	}
}

// SetMaxTagsPerSrc enables the per-source instance cap. Call it before
// the first Handle: instances opened earlier are not counted.
func (p *Peer) SetMaxTagsPerSrc(limit int) {
	p.maxTagsPerSrc = limit
	p.tagsPerSrc = make([]int, p.n)
}

// echoQuorum is ⌊(n+f)/2⌋+1: two echo quorums intersect in at least one
// correct process, so at most one payload per instance can reach it.
func (p *Peer) echoQuorum() int { return (p.n+p.f)/2 + 1 }

// readyAmplify is f+1: at least one correct process sent ready.
func (p *Peer) readyAmplify() int { return p.f + 1 }

// deliverQuorum is 2f+1: at least f+1 correct readies, which guarantees
// totality through amplification.
func (p *Peer) deliverQuorum() int { return 2*p.f + 1 }

// Broadcast reliably broadcasts payload under the given tag, returning
// the outputs to emit. Each (self, tag) pair must be used once.
func (p *Peer) Broadcast(tag string, payload msg.Msg) []proto.Output {
	return []proto.Output{proto.Bcast(msg.RBCSend{Src: p.self, Tag: tag, Payload: payload})}
}

// Rejected returns the count of discarded malformed, spoofed or
// non-member messages.
func (p *Peer) Rejected() int { return p.rejected }

// TakeDeliveries drains buffered deliveries.
func (p *Peer) TakeDeliveries() []Delivery {
	out := p.deliveries
	p.deliveries = nil
	return out
}

// Handle routes an incoming message. The second result reports whether
// the message belonged to the broadcast layer (hosts pass other kinds to
// their own logic). New deliveries appear via TakeDeliveries.
func (p *Peer) Handle(from ident.ProcessID, m msg.Msg) ([]proto.Output, bool) {
	switch v := m.(type) {
	case msg.RBCSend:
		return p.onSend(from, v), true
	case msg.RBCEcho:
		return p.onVote(from, v.Src, v.Tag, v.Payload, false), true
	case msg.RBCReady:
		return p.onVote(from, v.Src, v.Tag, v.Payload, true), true
	default:
		return nil, false
	}
}

func (p *Peer) inst(src ident.ProcessID, tag string) *instance {
	k := instKey{src: src, tag: tag}
	in, ok := p.insts[k]
	if !ok {
		if p.maxTagsPerSrc > 0 {
			if p.tagsPerSrc[src] >= p.maxTagsPerSrc {
				return nil
			}
			p.tagsPerSrc[src]++
		}
		in = &instance{}
		p.insts[k] = in
	}
	return in
}

// member reports whether id is one of the n processes; only they
// originate, echo or ready a broadcast.
func (p *Peer) member(id ident.ProcessID) bool { return id >= 0 && int(id) < p.n }

func (p *Peer) onSend(from ident.ProcessID, m msg.RBCSend) []proto.Output {
	if from != m.Src || m.Payload == nil || !p.member(from) {
		// Authenticated links: only src itself may originate its send.
		p.rejected++
		return nil
	}
	in := p.inst(m.Src, m.Tag)
	if in == nil || in.sentEcho {
		return nil
	}
	in.sentEcho = true
	return []proto.Output{proto.Bcast(msg.RBCEcho{Src: m.Src, Tag: m.Tag, Payload: m.Payload})}
}

// onVote counts from's echo (ready=false) or ready for payload, unless
// from already echoed (readied) in this instance: a later one, even for
// another payload, is dropped.
func (p *Peer) onVote(from, src ident.ProcessID, tag string, payload msg.Msg, ready bool) []proto.Output {
	if payload == nil || !p.member(from) || !p.member(src) {
		p.rejected++
		return nil
	}
	in := p.inst(src, tag)
	if in == nil || in.delivered || in.counted(from, ready) {
		return nil // post-delivery straggler, or a repeat vote
	}
	c := in.candidate(payload)
	c.votes(ready).Add(from)
	return p.progress(src, tag, in, c)
}

// progress applies the Bracha threshold rules for one candidate.
func (p *Peer) progress(src ident.ProcessID, tag string, in *instance, c *candidate) []proto.Output {
	var outs []proto.Output
	readyCount := c.readies.Len()
	if !in.sentReady && (c.echoes.Len() >= p.echoQuorum() || readyCount >= p.readyAmplify()) {
		in.sentReady = true
		outs = append(outs, proto.Bcast(msg.RBCReady{Src: src, Tag: tag, Payload: c.payload}))
	}
	if !in.delivered && readyCount >= p.deliverQuorum() {
		in.delivered = true
		p.deliveries = append(p.deliveries, Delivery{Src: src, Tag: tag, Payload: c.payload})
		// The instance has served its purpose: drop the candidates
		// (whose payloads pin history-sized sets) and keep only the
		// tombstone flags that deduplicate stragglers. Without this,
		// per-round instances retain every broadcast value forever.
		in.cands = nil
	}
	return outs
}

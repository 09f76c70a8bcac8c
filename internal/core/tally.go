package core

import (
	"fmt"

	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// AckKey identifies an ack tuple <Accepted_set, destination, ts, round>;
// tallies count distinct senders per tuple (GWTS Alg 3 line 37, Alg 4
// line 17, RSM plug-in Alg 7 line 4). The set is identified by its
// content digest, so inserting and counting is O(1) in the set size
// instead of rebuilding an O(total-bytes) canonical string per message.
type AckKey struct {
	Dig   lattice.Digest
	Dest  ident.ProcessID
	TS    uint32
	Round int
}

func (k AckKey) String() string {
	return fmt.Sprintf("r%d/ts%d/dest%v/%s", k.Round, k.TS, k.Dest, k.Dig.Hex())
}

// AckTally counts distinct ack senders per tuple and remembers the
// acknowledged set for each tuple. Beyond the per-tuple maps it keeps
// round- and digest-keyed indexes so the hot-path queries — RoundReached
// per incoming AckB, AtQuorum per decision attempt, AnyQuorumValue per
// read confirmation — cost O(1) or O(tuples-of-one-round) instead of a
// scan over every tuple ever recorded (the pprof-visible cost that
// motivated the indexes: the Safe_r advance rule runs on every ack).
type AckTally struct {
	senders map[AckKey]*ident.Set
	values  map[AckKey]lattice.Set

	byRound  map[int][]AckKey               // tuples per round, in insertion order
	roundMax map[int]int                    // max distinct-sender count among a round's tuples
	digMax   map[lattice.Digest]int         // max count among tuples carrying this value digest
	digVal   map[lattice.Digest]lattice.Set // any recorded value per digest
}

// NewAckTally returns an empty tally.
func NewAckTally() *AckTally {
	return &AckTally{
		senders:  make(map[AckKey]*ident.Set),
		values:   make(map[AckKey]lattice.Set),
		byRound:  make(map[int][]AckKey),
		roundMax: make(map[int]int),
		digMax:   make(map[lattice.Digest]int),
		digVal:   make(map[lattice.Digest]lattice.Set),
	}
}

// Add records that sender acknowledged the tuple; it returns the number
// of distinct senders so far (duplicates from the same sender are
// counted once).
func (t *AckTally) Add(sender ident.ProcessID, accepted lattice.Set, dest ident.ProcessID, ts uint32, round int) int {
	k := AckKey{Dig: accepted.Digest(), Dest: dest, TS: ts, Round: round}
	set := t.senders[k]
	if set == nil {
		set = ident.NewSet()
		t.senders[k] = set
		t.values[k] = accepted
		t.byRound[round] = append(t.byRound[round], k)
		if _, ok := t.digVal[k.Dig]; !ok {
			t.digVal[k.Dig] = accepted
		}
	}
	set.Add(sender)
	n := set.Len()
	if n > t.roundMax[round] {
		t.roundMax[round] = n
	}
	if n > t.digMax[k.Dig] {
		t.digMax[k.Dig] = n
	}
	return n
}

// Count returns the distinct-sender count of a tuple.
func (t *AckTally) Count(accepted lattice.Set, dest ident.ProcessID, ts uint32, round int) int {
	k := AckKey{Dig: accepted.Digest(), Dest: dest, TS: ts, Round: round}
	if s := t.senders[k]; s != nil {
		return s.Len()
	}
	return 0
}

// QuorumEntry is a tuple that reached a quorum.
type QuorumEntry struct {
	Key   AckKey
	Value lattice.Set
	Count int
}

// AtQuorum returns all tuples of the given round with >= quorum distinct
// senders, in deterministic order (by key string).
func (t *AckTally) AtQuorum(round, quorum int) []QuorumEntry {
	if t.roundMax[round] < quorum {
		return nil
	}
	var out []QuorumEntry
	for _, k := range t.byRound[round] {
		if s := t.senders[k]; s != nil && s.Len() >= quorum {
			out = append(out, QuorumEntry{Key: k, Value: t.values[k], Count: s.Len()})
		}
	}
	sortEntries(out)
	return out
}

// AnyQuorumValue reports whether the given value (matched by content
// digest, any dest/ts) reached quorum in any round; used by the RSM read
// confirmation (Alg 7 line 4: "< ·, Accepted_set, ·, ·, timestamp, r >
// appears ⌊(n+f)/2⌋+1 times in Ack_history").
func (t *AckTally) AnyQuorumValue(value lattice.Set, quorum int) bool {
	return t.digMax[value.Digest()] >= quorum
}

// RoundReached reports whether any tuple of the round reached quorum
// (the acceptor's Safe_r advance rule, Alg 4 lines 17-19).
func (t *AckTally) RoundReached(round, quorum int) bool {
	return t.roundMax[round] >= quorum
}

// QuorumValueAt returns the value with the given content digest that
// reached the quorum in the given round (any dest/ts tuple). It backs
// checkpoint countersigning (internal/compact): a replica only signs a
// prefix its own Ack_history shows quorum-committed at that round.
func (t *AckTally) QuorumValueAt(dig lattice.Digest, round, quorum int) (lattice.Set, bool) {
	if t.roundMax[round] < quorum || t.digMax[dig] < quorum {
		return lattice.Set{}, false
	}
	for _, k := range t.byRound[round] {
		if k.Dig != dig {
			continue
		}
		if s := t.senders[k]; s != nil && s.Len() >= quorum {
			return t.values[k], true
		}
	}
	return lattice.Set{}, false
}

// ValueByDigest returns any recorded value with the given content
// digest (checkpoint-certificate resolution: the cert itself carries
// the trust, the tally merely supplies the items, and the caller
// re-verifies the digest).
func (t *AckTally) ValueByDigest(dig lattice.Digest) (lattice.Set, bool) {
	v, ok := t.digVal[dig]
	return v, ok
}

// Trim drops every tuple of rounds before the cutoff, freeing the
// history-sized sets they pin. Checkpoint compaction calls it with a
// small margin behind the certificate round so in-flight read
// confirmations over recent tuples keep resolving. The digest indexes
// are rebuilt from the survivors, preserving the pre-index semantics:
// a value only counts as quorum-confirmed while tuples showing that
// quorum are still retained.
func (t *AckTally) Trim(before int) {
	changed := false
	for k := range t.senders {
		if k.Round < before {
			delete(t.senders, k)
			delete(t.values, k)
			changed = true
		}
	}
	if !changed {
		return
	}
	for r := range t.byRound {
		if r < before {
			delete(t.byRound, r)
			delete(t.roundMax, r)
		}
	}
	t.digMax = make(map[lattice.Digest]int, len(t.senders))
	t.digVal = make(map[lattice.Digest]lattice.Set, len(t.values))
	for k, s := range t.senders {
		if s.Len() > t.digMax[k.Dig] {
			t.digMax[k.Dig] = s.Len()
		}
		if _, ok := t.digVal[k.Dig]; !ok {
			t.digVal[k.Dig] = t.values[k]
		}
	}
}

// Rebase re-anchors retained tuple values on a certified base where
// the base is contained (pure representation change; digests and
// counts are untouched). Each distinct value is rebased once, through
// the digest index, and every tuple carrying that digest and length
// shares the result; values smaller than the base fail in O(1).
func (t *AckTally) Rebase(base *lattice.Base) {
	for d, v := range t.digVal {
		t.digVal[d] = v.TryRebase(base)
	}
	for k, v := range t.values {
		if nb := t.digVal[k.Dig]; nb.Anchor() == base && nb.Len() == v.Len() {
			t.values[k] = nb
		}
	}
}

func sortEntries(es []QuorumEntry) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Key.String() < es[j-1].Key.String(); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

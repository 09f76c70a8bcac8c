// Package sbs implements the Safety-by-Signature algorithms of §8: the
// one-shot SbS (Algorithms 8-10) with O(n) messages per proposer when
// f = O(1), and the generalized variant sketched in §8.2 (point-to-point
// signed acks plus broadcast "decided" certificates).
//
// Values are made safe not by a reliable broadcast but by transferable
// cryptographic evidence: a value is safe when ⌊(n+f)/2⌋+1 acceptors
// signed safe_acks that list it and never report it in a conflict
// (Definition 7). Lemma 13 (at most one safe value per signer) follows
// from quorum intersection on the acceptors' first-seen candidate sets.
package sbs

import (
	"fmt"
	"sort"
	"strings"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/sig"
)

// Crypto bundles a process's signer with the shared keychain and
// implements every signature format and verification rule of Algs 8-10.
// Verification results are memoized behind a digest-keyed
// verified-signature cache (sig.Cache): AllSafe re-examines the same
// proofs on every refined request, and signature checks dominate
// otherwise. The cache is generation-bounded, so a Byzantine flood of
// unique forgeries cannot exhaust memory.
type Crypto struct {
	kc     *sig.Cache
	signer sig.Signer
	quorum int
}

// memoCap bounds the verification cache per generation.
const memoCap = 1 << 16

// NewCrypto builds the crypto helper of one process.
func NewCrypto(kc sig.Keychain, self ident.ProcessID, quorum int) *Crypto {
	return &Crypto{kc: sig.NewCache(kc, memoCap), signer: kc.SignerFor(self), quorum: quorum}
}

// verifyMemo checks p's signature over data with memoization.
func (c *Crypto) verifyMemo(p ident.ProcessID, data, sigBytes []byte) bool {
	return c.kc.Verify(p, data, sigBytes)
}

// Signature preimages commit to the value's content digest instead of
// its full canonical byte string, making signing and verification O(1)
// in the set size; the domain tags are versioned (/v2) so the digest
// preimages can never collide with signatures produced under the
// original full-serialization format.
func valueBytes(author ident.ProcessID, round int, v lattice.Set) []byte {
	return []byte(fmt.Sprintf("bgla/sbs/value/v2|%d|%d|%s", author, round, v.Digest().Hex()))
}

// SignValue produces the proposer's signed value (Alg 8 line 9).
func (c *Crypto) SignValue(round int, v lattice.Set) msg.SignedValue {
	return msg.SignedValue{
		Author: c.signer.ID(),
		Round:  round,
		Value:  v,
		Sig:    c.signer.Sign(valueBytes(c.signer.ID(), round, v)),
	}
}

// VerifyValue checks a signed value's authenticity (Alg 10 Verify).
func (c *Crypto) VerifyValue(sv msg.SignedValue) bool {
	return c.verifyMemo(sv.Author, valueBytes(sv.Author, sv.Round, sv.Value), sv.Sig)
}

// VerifyConfPair implements Alg 10 VerifyConfPair: both values carry
// valid signatures of the same author (and round) but differ.
func (c *Crypto) VerifyConfPair(p msg.ConflictPair) bool {
	return c.VerifyValue(p.X) && c.VerifyValue(p.Y) &&
		p.X.Author == p.Y.Author && p.X.Round == p.Y.Round &&
		!p.X.Value.Equal(p.Y.Value)
}

func safeAckBytes(signer ident.ProcessID, round int, keys []string, conflicts []msg.ConflictPair) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "bgla/sbs/safeack/v2|%d|%d|", signer, round)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	b.WriteByte('|')
	for _, cp := range conflicts {
		b.WriteString(cp.X.ValueKey())
		b.WriteByte('~')
		b.WriteString(cp.Y.ValueKey())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// SignSafeAck produces the acceptor's signed safe_ack (Alg 9 line 5).
// keys must already be sorted (SafetySet.Keys returns them sorted).
func (c *Crypto) SignSafeAck(round int, keys []string, conflicts []msg.ConflictPair) msg.SafeAck {
	return msg.SafeAck{
		Round:     round,
		RcvdKeys:  keys,
		Conflicts: conflicts,
		Signer:    c.signer.ID(),
		Sig:       c.signer.Sign(safeAckBytes(c.signer.ID(), round, keys, conflicts)),
	}
}

// VerifySafeAck checks the safe_ack signature and its conflict pairs.
func (c *Crypto) VerifySafeAck(sa msg.SafeAck) bool {
	if !c.verifyMemo(sa.Signer, safeAckBytes(sa.Signer, sa.Round, sa.RcvdKeys, sa.Conflicts), sa.Sig) {
		return false
	}
	for _, cp := range sa.Conflicts {
		if !c.VerifyConfPair(cp) {
			return false
		}
	}
	return true
}

func signedAckBytes(signer ident.ProcessID, dest ident.ProcessID, ts uint32, round int, v lattice.Set) []byte {
	return []byte(fmt.Sprintf("bgla/sbs/ack/v2|%d|%d|%d|%d|%s", signer, dest, ts, round, v.Digest().Hex()))
}

// SignAck produces the §8.2 point-to-point signed ack.
func (c *Crypto) SignAck(dest ident.ProcessID, ts uint32, round int, v lattice.Set) msg.SignedAck {
	return msg.SignedAck{
		Accepted: v,
		Dest:     dest,
		TS:       ts,
		Round:    round,
		Signer:   c.signer.ID(),
		Sig:      c.signer.Sign(signedAckBytes(c.signer.ID(), dest, ts, round, v)),
	}
}

// VerifyAck checks a §8.2 signed ack.
func (c *Crypto) VerifyAck(a msg.SignedAck) bool {
	return c.verifyMemo(a.Signer, signedAckBytes(a.Signer, a.Dest, a.TS, a.Round, a.Accepted), a.Sig)
}

// VerifyCert checks a §8.2 decided certificate: ⌊(n+f)/2⌋+1 valid acks
// from distinct signers, all for the same (value, dest, ts, round).
// The structural screen runs first; the surviving ack signatures
// verify as one batch, so the quorum's signature work amortizes (and
// re-delivered certificates answer entirely from the cache).
func (c *Crypto) VerifyCert(cert msg.DecidedCert) bool {
	if len(cert.Acks) < c.quorum {
		return false
	}
	first := cert.Acks[0]
	reqs := make([]sig.Request, 0, len(cert.Acks))
	for _, a := range cert.Acks {
		if a.Round != cert.Round || !a.Accepted.Equal(cert.Value) {
			return false
		}
		if a.Dest != first.Dest || a.TS != first.TS {
			return false
		}
		reqs = append(reqs, sig.Request{
			Signer: a.Signer,
			Data:   signedAckBytes(a.Signer, a.Dest, a.TS, a.Round, a.Accepted),
			Sig:    a.Sig,
		})
	}
	for _, ok := range c.kc.VerifyBatch(reqs) {
		if !ok {
			return false
		}
	}
	// Distinctness is checked once every signer is known to hold a key:
	// a set over raw wire IDs would size itself to a forged one.
	seen := ident.NewSet()
	for _, a := range cert.Acks {
		if !seen.Add(a.Signer) {
			return false
		}
	}
	return true
}

// conflictListed reports whether key appears in any conflict of sa.
func conflictListed(sa msg.SafeAck, key string) bool {
	for _, cp := range sa.Conflicts {
		if cp.X.ValueKey() == key || cp.Y.ValueKey() == key {
			return true
		}
	}
	return false
}

func ackLists(sa msg.SafeAck, key string) bool {
	for _, k := range sa.RcvdKeys {
		if k == key {
			return true
		}
	}
	return false
}

// AllSafe implements Alg 10 AllSafe over proof-carrying values: every
// value must come with ⌊(n+f)/2⌋+1 valid safe_acks from distinct
// signers of the value's round, each listing the value and none
// reporting it conflicted; the value's own signature must verify.
func (c *Crypto) AllSafe(values []msg.ProofValue) bool {
	for _, pv := range values {
		if !c.VerifyValue(pv.SV) {
			return false
		}
		key := pv.SV.ValueKey()
		seen := ident.NewSet()
		for _, sa := range pv.Proof {
			if sa.Round != pv.SV.Round || !ackLists(sa, key) || conflictListed(sa, key) {
				return false
			}
			// Verify first: only a signer with a key enters the set.
			if !c.VerifySafeAck(sa) || !seen.Add(sa.Signer) {
				return false
			}
		}
		if seen.Len() < c.quorum {
			return false
		}
	}
	return true
}

// --- Safety set with RemoveConflicts semantics ---------------------------

type authorRound struct {
	author ident.ProcessID
	round  int
}

// SafetySet is the proposer's Safety_set (Alg 8): at most one signed
// value per (author, round); a conflicting pair removes both values and
// poisons the author for that round (RemoveConflicts, Alg 10).
type SafetySet struct {
	values   map[authorRound]msg.SignedValue
	poisoned map[authorRound]bool
}

// NewSafetySet returns an empty set.
func NewSafetySet() *SafetySet {
	return &SafetySet{
		values:   make(map[authorRound]msg.SignedValue),
		poisoned: make(map[authorRound]bool),
	}
}

// Add inserts a (verified) signed value; on conflict the existing value
// is removed and the author poisoned. It reports whether sv is in the
// set afterwards.
func (s *SafetySet) Add(sv msg.SignedValue) bool {
	k := authorRound{author: sv.Author, round: sv.Round}
	if s.poisoned[k] {
		return false
	}
	if cur, ok := s.values[k]; ok {
		if cur.Value.Equal(sv.Value) {
			return true
		}
		delete(s.values, k)
		s.poisoned[k] = true
		return false
	}
	s.values[k] = sv
	return true
}

// LenRound counts values of the given round.
func (s *SafetySet) LenRound(round int) int {
	n := 0
	for k := range s.values {
		if k.round == round {
			n++
		}
	}
	return n
}

// ValuesRound returns the round's values sorted by ValueKey.
func (s *SafetySet) ValuesRound(round int) []msg.SignedValue {
	var out []msg.SignedValue
	for k, v := range s.values {
		if k.round == round {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ValueKey() < out[j].ValueKey() })
	return out
}

// Keys returns the sorted ValueKeys of a slice of signed values.
func Keys(svs []msg.SignedValue) []string {
	keys := make([]string, len(svs))
	for i, sv := range svs {
		keys[i] = sv.ValueKey()
	}
	sort.Strings(keys)
	return keys
}

// sameKeys compares two sorted key slices.
func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- Acceptor candidate tracking ------------------------------------------

// Candidates is the acceptor's SafeCandidates (Alg 9): the first-seen
// signed value per (author, round); later different values from the
// same author are reported as conflicts but never replace the first
// (this is what makes Lemma 13 go through).
type Candidates struct {
	first map[authorRound]msg.SignedValue
}

// NewCandidates returns an empty tracker.
func NewCandidates() *Candidates {
	return &Candidates{first: make(map[authorRound]msg.SignedValue)}
}

// ConflictsWith returns the conflict pairs between the request values
// and the candidate set (plus conflicts inside the request itself),
// in deterministic order.
func (c *Candidates) ConflictsWith(values []msg.SignedValue) []msg.ConflictPair {
	var out []msg.ConflictPair
	for i, v := range values {
		k := authorRound{author: v.Author, round: v.Round}
		if cur, ok := c.first[k]; ok && !cur.Value.Equal(v.Value) {
			out = append(out, msg.ConflictPair{X: v, Y: cur})
		}
		for j := i + 1; j < len(values); j++ {
			w := values[j]
			if v.Author == w.Author && v.Round == w.Round && !v.Value.Equal(w.Value) {
				out = append(out, msg.ConflictPair{X: v, Y: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a := out[i].X.ValueKey() + out[i].Y.ValueKey()
		b := out[j].X.ValueKey() + out[j].Y.ValueKey()
		return a < b
	})
	return out
}

// Observe records the request values (first per author wins).
func (c *Candidates) Observe(values []msg.SignedValue) {
	for _, v := range values {
		k := authorRound{author: v.Author, round: v.Round}
		if _, ok := c.first[k]; !ok {
			c.first[k] = v
		}
	}
}

// --- Proof-carrying value sets ---------------------------------------------

// PVSet is an ordered set of proof-carrying values, compared by value
// identity (ValueKey); it is the representation of Proposed_set and the
// acceptor's Accepted_set in SbS.
type PVSet struct {
	items []msg.ProofValue // sorted by SV.ValueKey(), unique
}

// PVFromValues builds a PVSet.
func PVFromValues(values ...msg.ProofValue) PVSet {
	var s PVSet
	for _, v := range values {
		s = s.Insert(v)
	}
	return s
}

// Insert returns s ∪ {v}.
func (s PVSet) Insert(v msg.ProofValue) PVSet {
	key := v.SV.ValueKey()
	i := sort.Search(len(s.items), func(i int) bool { return s.items[i].SV.ValueKey() >= key })
	if i < len(s.items) && s.items[i].SV.ValueKey() == key {
		return s
	}
	out := make([]msg.ProofValue, 0, len(s.items)+1)
	out = append(out, s.items[:i]...)
	out = append(out, v)
	out = append(out, s.items[i:]...)
	return PVSet{items: out}
}

// Union returns s ∪ t.
func (s PVSet) Union(t PVSet) PVSet {
	out := s
	for _, v := range t.items {
		out = out.Insert(v)
	}
	return out
}

// SubsetOf reports s ⊆ t by value identity.
func (s PVSet) SubsetOf(t PVSet) bool {
	keys := make(map[string]bool, len(t.items))
	for _, v := range t.items {
		keys[v.SV.ValueKey()] = true
	}
	for _, v := range s.items {
		if !keys[v.SV.ValueKey()] {
			return false
		}
	}
	return true
}

// Equal reports equality by value identity.
func (s PVSet) Equal(t PVSet) bool {
	return len(s.items) == len(t.items) && s.SubsetOf(t)
}

// Len returns the number of values.
func (s PVSet) Len() int { return len(s.items) }

// Items returns the values (not to be mutated).
func (s PVSet) Items() []msg.ProofValue { return s.items }

// Plain returns the lattice element represented by the set: the union
// of all member values (the DECIDE(Only_values) step of Alg 8 line 49).
func (s PVSet) Plain() lattice.Set {
	out := lattice.Empty()
	for _, v := range s.items {
		out = out.Union(v.SV.Value)
	}
	return out
}

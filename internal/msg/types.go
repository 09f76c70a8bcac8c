// Package msg defines the complete message vocabulary of the paper's
// protocols (WTS Algs 1-2, GWTS Algs 3-4, RSM Algs 5-7, SbS Algs 8-10
// and the generalized signature variant of §8.2), the Bracha reliable
// broadcast wrapper messages, and the binary codec (binary.go, delta.go)
// for every byte that leaves the process: TCP frames and WAL records.
// In-memory transports pass the typed values directly; messages are
// treated as immutable once sent.
package msg

import (
	"fmt"

	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// Kind names a message type on the wire and in metrics.
type Kind string

// Message kinds, one per protocol message in the paper.
const (
	KindDisclosure Kind = "disclosure" // <disclosure_phase, value(, round)>
	KindAckReq     Kind = "ack_req"    // <ack_req, Proposed_set, ts(, round)>
	KindAck        Kind = "ack"        // <ack, Accepted_set, ts(, round)>
	KindNack       Kind = "nack"       // <nack, Accepted_set, ts(, round)>
	KindAckB       Kind = "ack_bcast"  // GWTS reliably-broadcast ack (Alg 4 line 10)

	KindRBCSend  Kind = "rbc.send"
	KindRBCEcho  Kind = "rbc.echo"
	KindRBCReady Kind = "rbc.ready"

	KindNewValue Kind = "rsm.new_value" // client -> f+1 replicas (Alg 5 line 3)
	KindDecide   Kind = "rsm.decide"    // replica -> client notification
	KindCnfReq   Kind = "rsm.cnf_req"   // read confirmation request (Alg 6 line 8)
	KindCnfRep   Kind = "rsm.cnf_rep"   // read confirmation reply (Alg 7 line 5)

	KindInitVal Kind = "sbs.init"     // <init_phase, signed value> (Alg 8 line 11)
	KindSafeReq Kind = "sbs.safe_req" // <safe_req, Safety_set> (Alg 8 line 18)
	KindSafeAck Kind = "sbs.safe_ack" // <safe_ack, Rcvd_set, Conflicts> (Alg 9 line 5)
	KindAckReqS Kind = "sbs.ack_req"  // proposing-phase request with proofs
	KindAckS    Kind = "sbs.ack"
	KindNackS   Kind = "sbs.nack"

	KindSignedAck   Kind = "gsbs.ack"     // §8.2 point-to-point signed ack
	KindDecidedCert Kind = "gsbs.decided" // §8.2 decided certificate

	KindWakeup Kind = "wakeup" // simulator timer self-message
	KindJunk   Kind = "junk"   // adversarial garbage

	KindShard Kind = "shard" // shard-tagged envelope (internal/shard)
)

// Msg is implemented by every protocol message.
type Msg interface {
	Kind() Kind
}

// --- Core WTS / GWTS messages -----------------------------------------

// Disclosure is the Values Disclosure Phase payload, reliably broadcast
// by a proposer: its proposed lattice element (WTS) or batch (GWTS).
type Disclosure struct {
	Round int
	Value lattice.Set
}

// Kind implements Msg.
func (Disclosure) Kind() Kind { return KindDisclosure }

// AckReq asks all acceptors to acknowledge Proposed.
type AckReq struct {
	Proposed lattice.Set
	TS       uint32
	Round    int
}

// Kind implements Msg.
func (AckReq) Kind() Kind { return KindAckReq }

// Ack is an acceptor's positive point-to-point reply (WTS Alg 2 line 9).
type Ack struct {
	Accepted lattice.Set
	TS       uint32
	Round    int
}

// Kind implements Msg.
func (Ack) Kind() Kind { return KindAck }

// Nack is an acceptor's negative reply carrying its Accepted_set.
type Nack struct {
	Accepted lattice.Set
	TS       uint32
	Round    int
}

// Kind implements Msg.
func (Nack) Kind() Kind { return KindNack }

// AckB is the GWTS acceptor ack, reliably broadcast so that acceptance
// of proposals is public (Alg 4 line 10): <ack, Accepted_set,
// destination, sender, ts, r>. The RBC layer authenticates the sender.
type AckB struct {
	Accepted lattice.Set
	Dest     ident.ProcessID
	TS       uint32
	Round    int
}

// Kind implements Msg.
func (AckB) Kind() Kind { return KindAckB }

// --- Bracha reliable broadcast wrappers --------------------------------

// RBCSend starts a reliable broadcast instance (Src, Tag) carrying an
// inner protocol message. Src is the claimed originator; correct relays
// only originate instances for Src == themselves, and receivers reject
// RBCSend whose network sender differs from Src (authenticated links).
type RBCSend struct {
	Src     ident.ProcessID
	Tag     string
	Payload Msg
}

// Kind implements Msg.
func (RBCSend) Kind() Kind { return KindRBCSend }

// RBCEcho is the echo phase message of Bracha broadcast.
type RBCEcho struct {
	Src     ident.ProcessID
	Tag     string
	Payload Msg
}

// Kind implements Msg.
func (RBCEcho) Kind() Kind { return KindRBCEcho }

// RBCReady is the ready phase message of Bracha broadcast.
type RBCReady struct {
	Src     ident.ProcessID
	Tag     string
	Payload Msg
}

// Kind implements Msg.
func (RBCReady) Kind() Kind { return KindRBCReady }

// --- RSM messages (Algorithms 5-7) --------------------------------------

// NewValue submits a command to a replica (Alg 5 line 3 / Alg 6 line 3).
type NewValue struct {
	Cmd lattice.Item
}

// Kind implements Msg.
func (NewValue) Kind() Kind { return KindNewValue }

// Decide notifies a client of a replica's GWTS decision value.
type Decide struct {
	Value lattice.Set
	Round int
}

// Kind implements Msg.
func (Decide) Kind() Kind { return KindDecide }

// CnfReq asks a replica to confirm that Value was decided (Alg 6 line 8).
type CnfReq struct {
	Value lattice.Set
}

// Kind implements Msg.
func (CnfReq) Kind() Kind { return KindCnfReq }

// CnfRep confirms that Value appeared quorum-many times in the replica's
// Ack_history (Alg 7 line 5).
type CnfRep struct {
	Value lattice.Set
}

// Kind implements Msg.
func (CnfRep) Kind() Kind { return KindCnfRep }

// --- SbS messages (Algorithms 8-10) -------------------------------------

// SignedValue is a lattice element signed by its author (Alg 8 line 9).
// Round is 0 for the one-shot algorithm and the GWTS round for the
// generalized variant, binding the signature to the round.
type SignedValue struct {
	Author ident.ProcessID
	Round  int
	Value  lattice.Set
	Sig    []byte
}

// ValueKey is the canonical identity of the signed value (author, round
// and the element's content digest); safe_acks commit to lists of these
// keys so proofs of safety stay verifiable by third parties without
// echoing whole sets. Since the v2 preimage format the element is
// identified by its 32-byte digest, so building a key is O(1) in the
// set size.
func (sv SignedValue) ValueKey() string {
	return fmt.Sprintf("%d|%d|%s", sv.Author, sv.Round, sv.Value.Digest().Hex())
}

// ConflictPair records two conflicting signed values (same author,
// different value) detected by an acceptor (Alg 10 VerifyConfPair).
type ConflictPair struct {
	X SignedValue
	Y SignedValue
}

// InitVal is the init-phase broadcast of a proposer's signed value.
type InitVal struct {
	SV SignedValue
}

// Kind implements Msg.
func (InitVal) Kind() Kind { return KindInitVal }

// SafeReq sends a proposer's Safety_set to the acceptors.
type SafeReq struct {
	Round  int
	Values []SignedValue
}

// Kind implements Msg.
func (SafeReq) Kind() Kind { return KindSafeReq }

// SafeAck is the acceptor's signed reply: the identities (ValueKeys) of
// the Safety_set values received and the conflicts it knows about
// (Alg 9 line 5). Signer/Sig authenticate the whole reply so it can
// serve inside transferable proofs of safety: a third party verifying a
// proof for value v checks v's key is listed in RcvdKeys and absent
// from Conflicts.
type SafeAck struct {
	Round     int
	RcvdKeys  []string
	Conflicts []ConflictPair
	Signer    ident.ProcessID
	Sig       []byte
}

// Kind implements Msg, so a SafeAck can travel standalone in tests;
// within the protocol it is embedded in ProofValue/NackS.
func (SafeAck) Kind() Kind { return KindSafeAck }

// ProofValue is a value bundled with its proof of safety: the quorum of
// signed safe_acks in which it never appears as a conflict (<v,
// Safe_acks> at Alg 8 line 27).
type ProofValue struct {
	SV    SignedValue
	Proof []SafeAck
}

// AckReqS is the SbS proposing-phase request: every value carries its
// proof of safety.
type AckReqS struct {
	Round  int
	Values []ProofValue
	TS     uint32
}

// Kind implements Msg.
func (AckReqS) Kind() Kind { return KindAckReqS }

// AckS is the SbS acceptor's positive reply. It carries the plain value
// set; equality with the proposer's Proposed_set is checked on values
// (proofs do not affect set identity).
type AckS struct {
	Round    int
	Accepted lattice.Set
	TS       uint32
}

// Kind implements Msg.
func (AckS) Kind() Kind { return KindAckS }

// NackS is the SbS acceptor's negative reply; the returned values carry
// proofs so the proposer can verify AllSafe before merging (Alg 8 line 40).
type NackS struct {
	Round  int
	Values []ProofValue
	TS     uint32
}

// Kind implements Msg.
func (NackS) Kind() Kind { return KindNackS }

// --- Generalized SbS (§8.2) ----------------------------------------------

// SignedAck is the point-to-point signed acceptor ack replacing the
// reliable broadcast of GWTS acks.
type SignedAck struct {
	Accepted lattice.Set
	Dest     ident.ProcessID
	TS       uint32
	Round    int
	Signer   ident.ProcessID
	Sig      []byte
}

// Kind implements Msg.
func (SignedAck) Kind() Kind { return KindSignedAck }

// DecidedCert is the well-formed "decided" certificate: ⌊(n+f)/2⌋+1
// signed acks for the same (Accepted, Dest, TS, Round). Broadcast before
// deciding; acceptors trust round r+1 after verifying one for round r.
type DecidedCert struct {
	Round int
	Value lattice.Set
	Acks  []SignedAck
}

// Kind implements Msg.
func (DecidedCert) Kind() Kind { return KindDecidedCert }

// --- Sharding envelope ---------------------------------------------------

// ShardMsg tags a protocol message with the lattice instance (shard) it
// belongs to, so many independent BGLA clusters can multiplex one
// transport (internal/shard). The wrapper is pure routing: shard s's
// machines never see traffic tagged for s' != s, which keeps the
// per-shard protocol state machines byte-for-byte identical to the
// unsharded ones.
type ShardMsg struct {
	Shard int
	Inner Msg
}

// Kind implements Msg.
func (ShardMsg) Kind() Kind { return KindShard }

// --- Infrastructure messages ---------------------------------------------

// Wakeup is a simulator-scheduled timer self-message.
type Wakeup struct {
	Tag string
}

// Kind implements Msg.
func (Wakeup) Kind() Kind { return KindWakeup }

// Junk is adversarial garbage used in fault-injection tests.
type Junk struct {
	Blob string
}

// Kind implements Msg.
func (Junk) Kind() Kind { return KindJunk }

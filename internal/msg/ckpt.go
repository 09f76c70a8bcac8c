package msg

import (
	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// This file defines the checkpoint-compaction and state-transfer
// vocabulary (internal/compact, DESIGN.md §6). A checkpoint folds the
// stable decided prefix into a certificate — 2f+1 signatures over the
// prefix's lattice digest and folded image — after which live values
// travel and tally as "certified base + O(window) frontier", and a
// lagging or restarted replica catches up from a peer's checkpoint
// instead of replaying full history.

// Checkpoint wire kinds.
const (
	KindCkptProp Kind = "ckpt.prop"      // initiator → all: propose folding a decided prefix
	KindCkptSig  Kind = "ckpt.sig"       // signer → initiator: one countersignature
	KindCkptCert Kind = "ckpt.cert"      // assembled 2f+1-signature certificate, broadcast
	KindStateReq Kind = "ckpt.state_req" // lagging replica → cert holder: send me the prefix
	KindStateRep Kind = "ckpt.state_rep" // cert + the full prefix value (state transfer)
)

// CkptProp proposes checkpointing the quorum-committed decided value
// with content digest Dig (|value| = Len) that legitimately ended Round.
// Receivers countersign only after their own Ack_history shows the
// value at ack quorum in that round with Round ≤ their Safe_r — the
// certificate is therefore a transferable proof of exactly the
// condition the Algorithm 7 read confirmation checks.
type CkptProp struct {
	Epoch int
	Round int
	Len   int
	Dig   lattice.Digest
	From  ident.ProcessID
}

// Kind implements Msg.
func (CkptProp) Kind() Kind { return KindCkptProp }

// CkptSig is one replica's signature over the checkpoint preimage
// (compact.Preimage: domain tag, epoch, round, len, digest, folded
// image hash).
type CkptSig struct {
	Epoch  int
	Round  int
	Len    int
	Dig    lattice.Digest
	Image  []byte
	Signer ident.ProcessID
	Sig    []byte
}

// Kind implements Msg.
func (CkptSig) Kind() Kind { return KindCkptSig }

// CkptCert is the assembled checkpoint certificate: ≥ 2f+1 distinct
// valid signatures over one preimage. Any replica verifying it may
// adopt the prefix as decided (it is quorum-committed by ≥ f+1 correct
// signers' Ack_histories) and rewrite its state as base + window.
type CkptCert struct {
	Epoch int
	Round int
	Len   int
	Dig   lattice.Digest
	Image []byte
	Sigs  []CkptSig
}

// Kind implements Msg.
func (CkptCert) Kind() Kind { return KindCkptCert }

// StateReq asks a peer for the prefix value behind a certificate the
// requester cannot resolve locally (restart, long lag).
type StateReq struct {
	Dig lattice.Digest
}

// Kind implements Msg.
func (StateReq) Kind() Kind { return KindStateReq }

// StateRep transfers a checkpointed prefix: the certificate plus the
// full value. The receiver verifies the certificate, the value's
// digest against Cert.Dig and the folded image hash before installing,
// so a forged or tampered transfer can never smuggle undecided items.
type StateRep struct {
	Cert  CkptCert
	Value lattice.Set
}

// Kind implements Msg.
func (StateRep) Kind() Kind { return KindStateRep }

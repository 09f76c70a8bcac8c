// Package compact implements checkpointed history compaction
// (DESIGN.md §6): the periodic folding of the stable decided prefix of
// a GWTS/RSM cluster into a signed checkpoint certificate, after which
// every layer operates on "certified base + O(window) frontier"
// instead of O(history) sets, and a lagging or restarted replica can
// catch up from a peer's checkpoint via state transfer instead of
// replaying full history.
//
// Both the source paper and Zheng–Garg's asynchronous Byzantine
// lattice agreement treat values as monotone joins of known
// components, which is what makes a quorum-certified decided prefix
// safely foldable: once 2f+1 replicas sign the digest of a decided
// set, the prefix can be replaced everywhere by its certificate plus
// its folded image. The certificate a replica countersigns is a proof
// of exactly the condition the Algorithm 7 read confirmation checks —
// the value appeared ack-quorum-many times in its Ack_history at a
// legitimately ended round — so a certificate transfers the §7
// stability guarantee ("contained in every future decision") without
// transferring history. See DESIGN.md §6 for the full safety argument
// (why a forged or stale checkpoint cannot smuggle undecided items
// past Lemma 12's filtering).
package compact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"

	"bgla/internal/ident"
	"bgla/internal/lattice"
	"bgla/internal/msg"
	"bgla/internal/sig"
)

// preimageTag is the domain-separation tag of checkpoint signatures.
// It shares the keychain with the SbS /v2 tags but can never collide
// with them (or with any other preimage family) because the tag bytes
// differ.
const preimageTag = "bgla/ckpt/v1|"

// imageTag domain-separates the folded-image hash.
const imageTag = "bgla/ckpt/image/v1|"

// imageChunk is the size of the buffer ImageHash feeds SHA-256 with.
const imageChunk = 4096

// ImageHash hashes the checkpoint prefix's folded CRDT image: the
// canonical (sorted, length-delimited) item sequence the application
// fold is a pure function of. Any two replicas holding the same set
// produce identical image hashes; a state-transfer receiver recomputes
// it before installing, binding the transferred items to the
// certificate with a plain SHA-256 chain on top of the additive set
// digest.
//
// Each item contributes author (8 bytes LE), body length (8 bytes LE)
// and body. They are appended to one reused chunk buffer that is
// written whenever the next item would overflow it, so the allocations
// per call are constant, not one per item.
func ImageHash(v lattice.Set) []byte {
	h := sha256.New()
	buf := make([]byte, 0, imageChunk)
	buf = append(buf, imageTag...)
	v.Each(func(it lattice.Item) bool {
		if len(buf)+16+len(it.Body) > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(it.Author)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(it.Body)))
		buf = append(buf, it.Body...)
		return true
	})
	h.Write(buf)
	return h.Sum(nil)
}

// Preimage builds the signed bytes of a checkpoint: domain tag, round,
// length, content digest and folded image hash, all fixed-width or
// length-delimited so no two checkpoints share a preimage. The epoch
// is deliberately outside the preimage: it is a per-replica install
// counter (advisory ordering and stats), and keeping it out lets one
// countersignature serve every initiator proposing the same committed
// prefix — install guards order by Len, which is signed.
func Preimage(round, length int, dig lattice.Digest, image []byte) []byte {
	var b bytes.Buffer
	b.WriteString(preimageTag)
	var buf [8]byte
	for _, v := range []int{round, length} {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		b.Write(buf[:])
	}
	b.Write(dig[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(image)))
	b.Write(buf[:])
	b.Write(image)
	return b.Bytes()
}

// CertQuorum returns the certificate signature threshold, 2f+1: at
// least f+1 correct replicas attest the prefix is quorum-committed.
func CertQuorum(f int) int { return 2*f + 1 }

// Sign produces one replica's countersignature for a checkpoint.
func Sign(s sig.Signer, epoch, round, length int, dig lattice.Digest, image []byte) msg.CkptSig {
	return msg.CkptSig{
		Epoch: epoch, Round: round, Len: length, Dig: dig, Image: image,
		Signer: s.ID(),
		Sig:    s.Sign(Preimage(round, length, dig, image)),
	}
}

// VerifyCert checks a certificate: every signature must verify over
// the certificate's own preimage, signers must be distinct replica
// identities in [0, n), and at least 2f+1 must survive. A certificate
// that passes is backed by ≥ f+1 correct replicas, each of which
// observed the value at ack quorum in its Ack_history — the value is
// quorum-committed and therefore contained in every future decision.
func VerifyCert(kc sig.Keychain, n, f int, c msg.CkptCert) bool {
	if c.Len <= 0 || c.Round < 0 || len(c.Sigs) < CertQuorum(f) {
		return false
	}
	pre := Preimage(c.Round, c.Len, c.Dig, c.Image)
	// Structural screen first, then verify the survivors as one batch:
	// signature work amortizes across the quorum (and across repeated
	// deliveries, when kc carries a verified-signature cache) while a
	// forged signature invalidates only its own slot, never the batch.
	cand := make([]msg.CkptSig, 0, len(c.Sigs))
	for _, s := range c.Sigs {
		if s.Signer < 0 || int(s.Signer) >= n {
			continue
		}
		if s.Round != c.Round || s.Len != c.Len || s.Dig != c.Dig || !bytes.Equal(s.Image, c.Image) {
			continue
		}
		cand = append(cand, s)
	}
	if len(cand) < CertQuorum(f) {
		return false
	}
	reqs := make([]sig.Request, len(cand))
	for i, s := range cand {
		reqs[i] = sig.Request{Signer: s.Signer, Data: pre, Sig: s.Sig}
	}
	verdicts := sig.VerifyBatch(kc, reqs)
	seen := ident.NewSet()
	valid := 0
	for i, s := range cand {
		if !verdicts[i] || seen.Has(s.Signer) {
			continue
		}
		seen.Add(s.Signer)
		valid++
	}
	return valid >= CertQuorum(f)
}

// ScaleEvery divides a store-wide checkpoint item threshold across S
// shards (each shard sees ~1/S of the history), clamped so tiny shares
// don't degenerate into per-decision checkpoints.
func ScaleEvery(every, shards int) int {
	return scale(every, shards, 16)
}

// ScaleBytes is ScaleEvery for the byte-denominated threshold, with a
// byte-unit floor instead of the item-count one.
func ScaleBytes(bytes, shards int) int {
	return scale(bytes, shards, 1024)
}

func scale(total, shards, floor int) int {
	if total <= 0 || shards <= 1 {
		return total
	}
	per := total / shards
	if per < floor {
		per = floor
	}
	return per
}

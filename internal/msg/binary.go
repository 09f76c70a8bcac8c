package msg

// Binary codec (DESIGN.md §10): the one encoding for messages on the
// wire and for the sets and certificates inside WAL records. Frames are
// self-describing: the first byte is BinMagic, the second the kind
// code, and the body a fixed field walk per kind — zigzag varints for
// signed integers, uvarint length prefixes for strings and byte
// slices, raw 32-byte lattice digests, and recursion for the RBC/shard
// wrapper payloads. Encoding appends into a caller-supplied buffer
// (AppendBinary) so transports can reuse pooled scratch space; decoding
// is strictly bounds-checked — hostile inputs produce errors, never
// panics, and every length is validated against the remaining buffer
// before allocation. Item bodies of one set decode as substrings of a
// single bulk string, one allocation per set instead of one per item.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"

	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// BinMagic is the first byte of every binary frame.
const BinMagic byte = 0xB6

// Binary kind codes. Stable wire numbers — append only.
const (
	binDisclosure byte = iota + 1
	binAckReq
	binAck
	binNack
	binAckB
	binRBCSend
	binRBCEcho
	binRBCReady
	binNewValue
	binDecide
	binCnfReq
	binCnfRep
	binInitVal
	binSafeReq
	binSafeAck
	binAckReqS
	binAckS
	binNackS
	binSignedAck
	binDecidedCert
	binWakeup
	binJunk
	binShard
	binCkptProp
	binCkptSig
	binCkptCert
	binStateReq
	binStateRep
	binDeltaFrame
	binDeltaNack
)

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// IsBinaryFrame reports whether data starts with the binary magic byte.
func IsBinaryFrame(data []byte) bool {
	return len(data) > 0 && data[0] == BinMagic
}

// EncodeBinary serializes a message into a fresh binary frame.
func EncodeBinary(m Msg) ([]byte, error) {
	return AppendBinary(make([]byte, 0, 128), m)
}

// AppendBinary appends m's binary frame to dst and returns the extended
// buffer, so callers with pooled scratch buffers encode without
// allocating.
func AppendBinary(dst []byte, m Msg) ([]byte, error) { return appendBinary(dst, m, false) }

// appendBinary is AppendBinary; with strip set it encodes m's primary
// set (PrimarySet) as ⊥, i.e. it emits the frame of
// WithPrimarySet(m, ⊥) without building that copy — the inner message
// of a delta frame, whose set travels in the frame's sidecar.
func appendBinary(dst []byte, m Msg, strip bool) ([]byte, error) {
	switch v := m.(type) {
	case Disclosure:
		dst = append(dst, BinMagic, binDisclosure)
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Value, strip), nil
	case AckReq:
		dst = append(dst, BinMagic, binAckReq)
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Proposed, strip), nil
	case Ack:
		dst = append(dst, BinMagic, binAck)
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Accepted, strip), nil
	case Nack:
		dst = append(dst, BinMagic, binNack)
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Accepted, strip), nil
	case AckB:
		dst = append(dst, BinMagic, binAckB)
		dst = binary.AppendVarint(dst, int64(v.Dest))
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Accepted, strip), nil
	case RBCSend:
		return appendRBC(dst, binRBCSend, v.Src, v.Tag, v.Payload, strip)
	case RBCEcho:
		return appendRBC(dst, binRBCEcho, v.Src, v.Tag, v.Payload, strip)
	case RBCReady:
		return appendRBC(dst, binRBCReady, v.Src, v.Tag, v.Payload, strip)
	case NewValue:
		dst = append(dst, BinMagic, binNewValue)
		dst = binary.AppendVarint(dst, int64(v.Cmd.Author))
		return appendString(dst, v.Cmd.Body), nil
	case Decide:
		dst = append(dst, BinMagic, binDecide)
		dst = binary.AppendVarint(dst, int64(v.Round))
		return appendPrimary(dst, v.Value, strip), nil
	case CnfReq:
		dst = append(dst, BinMagic, binCnfReq)
		return appendPrimary(dst, v.Value, strip), nil
	case CnfRep:
		dst = append(dst, BinMagic, binCnfRep)
		return appendPrimary(dst, v.Value, strip), nil
	case InitVal:
		dst = append(dst, BinMagic, binInitVal)
		return appendSignedValue(dst, v.SV), nil
	case SafeReq:
		dst = append(dst, BinMagic, binSafeReq)
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendUvarint(dst, uint64(len(v.Values)))
		for _, sv := range v.Values {
			dst = appendSignedValue(dst, sv)
		}
		return dst, nil
	case SafeAck:
		dst = append(dst, BinMagic, binSafeAck)
		return appendSafeAck(dst, v), nil
	case AckReqS:
		dst = append(dst, BinMagic, binAckReqS)
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		return appendProofValues(dst, v.Values), nil
	case AckS:
		dst = append(dst, BinMagic, binAckS)
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		return appendSet(dst, v.Accepted), nil
	case NackS:
		dst = append(dst, BinMagic, binNackS)
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendUvarint(dst, uint64(v.TS))
		return appendProofValues(dst, v.Values), nil
	case SignedAck:
		dst = append(dst, BinMagic, binSignedAck)
		return appendSignedAck(dst, v, strip), nil
	case DecidedCert:
		dst = append(dst, BinMagic, binDecidedCert)
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = appendPrimary(dst, v.Value, strip)
		dst = binary.AppendUvarint(dst, uint64(len(v.Acks)))
		for _, a := range v.Acks {
			dst = appendSignedAck(dst, a, false)
		}
		return dst, nil
	case Wakeup:
		dst = append(dst, BinMagic, binWakeup)
		return appendString(dst, v.Tag), nil
	case Junk:
		dst = append(dst, BinMagic, binJunk)
		return appendString(dst, v.Blob), nil
	case ShardMsg:
		dst = append(dst, BinMagic, binShard)
		dst = binary.AppendVarint(dst, int64(v.Shard))
		return appendBinary(dst, v.Inner, strip)
	case CkptProp:
		dst = append(dst, BinMagic, binCkptProp)
		dst = binary.AppendVarint(dst, int64(v.Epoch))
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendVarint(dst, int64(v.Len))
		dst = append(dst, v.Dig[:]...)
		dst = binary.AppendVarint(dst, int64(v.From))
		return dst, nil
	case CkptSig:
		dst = append(dst, BinMagic, binCkptSig)
		return appendCkptSig(dst, v), nil
	case CkptCert:
		dst = append(dst, BinMagic, binCkptCert)
		dst = binary.AppendVarint(dst, int64(v.Epoch))
		dst = binary.AppendVarint(dst, int64(v.Round))
		dst = binary.AppendVarint(dst, int64(v.Len))
		dst = append(dst, v.Dig[:]...)
		dst = appendBytes(dst, v.Image)
		dst = binary.AppendUvarint(dst, uint64(len(v.Sigs)))
		for _, s := range v.Sigs {
			dst = appendCkptSig(dst, s)
		}
		return dst, nil
	case StateReq:
		dst = append(dst, BinMagic, binStateReq)
		return append(dst, v.Dig[:]...), nil
	case StateRep:
		dst = append(dst, BinMagic, binStateRep)
		var err error
		dst, err = AppendBinary(dst, v.Cert)
		if err != nil {
			return nil, err
		}
		return appendPrimary(dst, v.Value, strip), nil
	case DeltaNack:
		dst = append(dst, BinMagic, binDeltaNack)
		return binary.AppendUvarint(dst, v.Seq), nil
	default:
		return nil, fmt.Errorf("msg: no binary encoding for %T", m)
	}
}

func appendRBC(dst []byte, code byte, src ident.ProcessID, tag string, payload Msg, strip bool) ([]byte, error) {
	dst = append(dst, BinMagic, code)
	dst = binary.AppendVarint(dst, int64(src))
	dst = appendString(dst, tag)
	return appendBinary(dst, payload, strip)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, p []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// setAppender carries the output buffer across Each callbacks as a
// plain struct field instead of a captured variable, so the callback
// does not force a heap-boxed closure environment.
type setAppender struct{ buf []byte }

func (w *setAppender) add(it lattice.Item) bool {
	b := binary.AppendVarint(w.buf, int64(it.Author))
	b = binary.AppendUvarint(b, uint64(len(it.Body)))
	w.buf = append(b, it.Body...)
	return true
}

// AppendSet appends s in the codec's set layout — the one set encoding,
// shared with WAL records.
func AppendSet(dst []byte, s lattice.Set) []byte { return appendSet(dst, s) }

// ReadSet decodes one set in AppendSet's layout from the front of data
// and returns it with the bytes that follow. Hostile orderings and
// duplicates are re-normalized, as on the wire.
func ReadSet(data []byte) (lattice.Set, []byte, error) {
	r := &binReader{b: data}
	s := r.set("set")
	if r.err != nil {
		return lattice.Set{}, nil, r.err
	}
	return s, data[r.off:], nil
}

// appendSet encodes the logical (flattened) item sequence in canonical
// order: anchors are process-local representation.
func appendSet(dst []byte, s lattice.Set) []byte {
	w := setAppender{buf: binary.AppendUvarint(dst, uint64(s.Len()))}
	s.Each(w.add)
	return w.buf
}

// appendPrimary encodes a message's primary set, as ⊥ when strip is set.
func appendPrimary(dst []byte, s lattice.Set, strip bool) []byte {
	if strip {
		return append(dst, 0)
	}
	return appendSet(dst, s)
}

// appendItems encodes items, which must be in canonical order, in the
// layout of appendSet.
func appendItems(dst []byte, items []lattice.Item) []byte {
	w := setAppender{buf: binary.AppendUvarint(dst, uint64(len(items)))}
	for _, it := range items {
		w.add(it)
	}
	return w.buf
}

func appendSignedValue(dst []byte, sv SignedValue) []byte {
	dst = binary.AppendVarint(dst, int64(sv.Author))
	dst = binary.AppendVarint(dst, int64(sv.Round))
	dst = appendSet(dst, sv.Value)
	return appendBytes(dst, sv.Sig)
}

func appendSafeAck(dst []byte, a SafeAck) []byte {
	dst = binary.AppendVarint(dst, int64(a.Round))
	dst = binary.AppendUvarint(dst, uint64(len(a.RcvdKeys)))
	for _, k := range a.RcvdKeys {
		dst = appendString(dst, k)
	}
	dst = binary.AppendUvarint(dst, uint64(len(a.Conflicts)))
	for _, c := range a.Conflicts {
		dst = appendSignedValue(dst, c.X)
		dst = appendSignedValue(dst, c.Y)
	}
	dst = binary.AppendVarint(dst, int64(a.Signer))
	return appendBytes(dst, a.Sig)
}

func appendProofValues(dst []byte, pvs []ProofValue) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pvs)))
	for _, pv := range pvs {
		dst = appendSignedValue(dst, pv.SV)
		dst = binary.AppendUvarint(dst, uint64(len(pv.Proof)))
		for _, p := range pv.Proof {
			dst = appendSafeAck(dst, p)
		}
	}
	return dst
}

func appendSignedAck(dst []byte, a SignedAck, strip bool) []byte {
	dst = appendPrimary(dst, a.Accepted, strip)
	dst = binary.AppendVarint(dst, int64(a.Dest))
	dst = binary.AppendUvarint(dst, uint64(a.TS))
	dst = binary.AppendVarint(dst, int64(a.Round))
	dst = binary.AppendVarint(dst, int64(a.Signer))
	return appendBytes(dst, a.Sig)
}

func appendCkptSig(dst []byte, s CkptSig) []byte {
	dst = binary.AppendVarint(dst, int64(s.Epoch))
	dst = binary.AppendVarint(dst, int64(s.Round))
	dst = binary.AppendVarint(dst, int64(s.Len))
	dst = append(dst, s.Dig[:]...)
	dst = appendBytes(dst, s.Image)
	dst = binary.AppendVarint(dst, int64(s.Signer))
	return appendBytes(dst, s.Sig)
}

// DecodeBinary parses a binary frame back into a typed message. Inputs
// that are not well-formed frames — wrong magic, unknown kind, truncated
// or oversized fields, trailing garbage — return errors; no input
// panics.
func DecodeBinary(data []byte) (Msg, error) {
	if !IsBinaryFrame(data) {
		return nil, errors.New("msg: not a binary frame")
	}
	r := &binReader{b: data}
	m := r.msg()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("msg: binary: %d trailing bytes", len(data)-r.off)
	}
	return m, nil
}

// binReader is a bounds-checked sequential reader; the first failure
// latches err and every later read returns zero values.
type binReader struct {
	b   []byte
	off int
	err error
}

func (r *binReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("msg: binary: bad %s at offset %d", what, r.off)
	}
}

func (r *binReader) rem() int { return len(r.b) - r.off }

func (r *binReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) varint(what string) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

// count reads a collection length and validates it against the minimum
// encoded size of one element, so hostile counts cannot drive huge
// allocations.
func (r *binReader) count(what string, minElem int) int {
	v := r.uvarint(what)
	if r.err != nil {
		return 0
	}
	if v > uint64(r.rem()/minElem+1) {
		r.fail(what)
		return 0
	}
	return int(v)
}

func (r *binReader) ts(what string) uint32 {
	v := r.uvarint(what)
	if v > 1<<32-1 {
		r.fail(what)
		return 0
	}
	return uint32(v)
}

func (r *binReader) pid(what string) ident.ProcessID {
	v := r.varint(what)
	if v < -(1<<31) || v > 1<<31-1 {
		r.fail(what)
		return 0
	}
	return ident.ProcessID(v)
}

func (r *binReader) bytes(what string) []byte {
	n := r.uvarint(what)
	if r.err != nil {
		return nil
	}
	if n > uint64(r.rem()) {
		r.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += int(n)
	return out
}

func (r *binReader) str(what string) string {
	n := r.uvarint(what)
	if r.err != nil || n > uint64(r.rem()) {
		r.fail(what)
		return ""
	}
	if !utf8.Valid(r.b[r.off : r.off+int(n)]) {
		r.fail(what)
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *binReader) digest(what string) lattice.Digest {
	var d lattice.Digest
	if r.err != nil {
		return d
	}
	if r.rem() < len(d) {
		r.fail(what)
		return d
	}
	copy(d[:], r.b[r.off:])
	r.off += len(d)
	return d
}

// set decodes an item sequence; the items re-normalize through
// lattice.FromItems, so hostile orderings or duplicates cannot produce
// a malformed set.
func (r *binReader) set(what string) lattice.Set {
	return lattice.FromItems(r.items(what)...)
}

// items decodes an item sequence as it sits on the wire. Bodies are
// carved as substrings of one bulk string covering the whole item
// region — a single allocation regardless of item count.
func (r *binReader) items(what string) []lattice.Item {
	n := r.count(what, 2)
	if r.err != nil || n == 0 {
		return nil
	}
	type span struct {
		author     ident.ProcessID
		start, end int
	}
	spans := make([]span, 0, n)
	blkStart := r.off
	for i := 0; i < n; i++ {
		a := r.pid(what)
		l := r.uvarint(what)
		if r.err != nil || l > uint64(r.rem()) || !utf8.Valid(r.b[r.off:r.off+int(l)]) {
			// Item bodies must be valid UTF-8 (commands are text), so
			// such frames are not legal wire.
			r.fail(what)
			return nil
		}
		spans = append(spans, span{author: a, start: r.off, end: r.off + int(l)})
		r.off += int(l)
	}
	blk := string(r.b[blkStart:r.off])
	items := make([]lattice.Item, n)
	for i, sp := range spans {
		items[i] = lattice.Item{Author: sp.author, Body: blk[sp.start-blkStart : sp.end-blkStart]}
	}
	return items
}

func (r *binReader) signedValue(what string) SignedValue {
	return SignedValue{
		Author: r.pid(what),
		Round:  int(r.varint(what)),
		Value:  r.set(what),
		Sig:    r.bytes(what),
	}
}

func (r *binReader) safeAck(what string) SafeAck {
	a := SafeAck{Round: int(r.varint(what))}
	nk := r.count(what, 1)
	if r.err != nil {
		return a
	}
	a.RcvdKeys = make([]string, 0, nk)
	for i := 0; i < nk; i++ {
		a.RcvdKeys = append(a.RcvdKeys, r.str(what))
	}
	nc := r.count(what, 8)
	if r.err != nil {
		return a
	}
	a.Conflicts = make([]ConflictPair, 0, nc)
	for i := 0; i < nc; i++ {
		a.Conflicts = append(a.Conflicts, ConflictPair{
			X: r.signedValue(what),
			Y: r.signedValue(what),
		})
	}
	a.Signer = r.pid(what)
	a.Sig = r.bytes(what)
	return a
}

func (r *binReader) proofValues(what string) []ProofValue {
	n := r.count(what, 8)
	if r.err != nil {
		return nil
	}
	out := make([]ProofValue, 0, n)
	for i := 0; i < n; i++ {
		pv := ProofValue{SV: r.signedValue(what)}
		np := r.count(what, 4)
		if r.err != nil {
			return nil
		}
		pv.Proof = make([]SafeAck, 0, np)
		for j := 0; j < np; j++ {
			pv.Proof = append(pv.Proof, r.safeAck(what))
		}
		out = append(out, pv)
	}
	return out
}

func (r *binReader) signedAck(what string) SignedAck {
	return SignedAck{
		Accepted: r.set(what),
		Dest:     r.pid(what),
		TS:       r.ts(what),
		Round:    int(r.varint(what)),
		Signer:   r.pid(what),
		Sig:      r.bytes(what),
	}
}

func (r *binReader) ckptSig(what string) CkptSig {
	return CkptSig{
		Epoch:  int(r.varint(what)),
		Round:  int(r.varint(what)),
		Len:    int(r.varint(what)),
		Dig:    r.digest(what),
		Image:  r.bytes(what),
		Signer: r.pid(what),
		Sig:    r.bytes(what),
	}
}

// msg decodes one frame starting at r.off (past any outer fields); the
// leading magic byte of nested frames is consumed here.
func (r *binReader) msg() Msg {
	if r.err != nil {
		return nil
	}
	if r.rem() < 2 || r.b[r.off] != BinMagic {
		r.fail("frame header")
		return nil
	}
	kind := r.b[r.off+1]
	r.off += 2
	switch kind {
	case binDisclosure:
		return Disclosure{Round: int(r.varint("disclosure")), Value: r.set("disclosure")}
	case binAckReq:
		return AckReq{TS: r.ts("ack_req"), Round: int(r.varint("ack_req")), Proposed: r.set("ack_req")}
	case binAck:
		return Ack{TS: r.ts("ack"), Round: int(r.varint("ack")), Accepted: r.set("ack")}
	case binNack:
		return Nack{TS: r.ts("nack"), Round: int(r.varint("nack")), Accepted: r.set("nack")}
	case binAckB:
		return AckB{Dest: r.pid("ack_bcast"), TS: r.ts("ack_bcast"), Round: int(r.varint("ack_bcast")), Accepted: r.set("ack_bcast")}
	case binRBCSend:
		src, tag := r.pid("rbc"), r.str("rbc")
		return RBCSend{Src: src, Tag: tag, Payload: r.msg()}
	case binRBCEcho:
		src, tag := r.pid("rbc"), r.str("rbc")
		return RBCEcho{Src: src, Tag: tag, Payload: r.msg()}
	case binRBCReady:
		src, tag := r.pid("rbc"), r.str("rbc")
		return RBCReady{Src: src, Tag: tag, Payload: r.msg()}
	case binNewValue:
		return NewValue{Cmd: lattice.Item{Author: r.pid("new_value"), Body: r.str("new_value")}}
	case binDecide:
		return Decide{Round: int(r.varint("decide")), Value: r.set("decide")}
	case binCnfReq:
		return CnfReq{Value: r.set("cnf_req")}
	case binCnfRep:
		return CnfRep{Value: r.set("cnf_rep")}
	case binInitVal:
		return InitVal{SV: r.signedValue("init")}
	case binSafeReq:
		sr := SafeReq{Round: int(r.varint("safe_req"))}
		n := r.count("safe_req", 4)
		if r.err != nil {
			return nil
		}
		sr.Values = make([]SignedValue, 0, n)
		for i := 0; i < n; i++ {
			sr.Values = append(sr.Values, r.signedValue("safe_req"))
		}
		return sr
	case binSafeAck:
		return r.safeAck("safe_ack")
	case binAckReqS:
		round, ts := int(r.varint("ack_req_s")), r.ts("ack_req_s")
		return AckReqS{Round: round, TS: ts, Values: r.proofValues("ack_req_s")}
	case binAckS:
		return AckS{Round: int(r.varint("ack_s")), TS: r.ts("ack_s"), Accepted: r.set("ack_s")}
	case binNackS:
		round, ts := int(r.varint("nack_s")), r.ts("nack_s")
		return NackS{Round: round, TS: ts, Values: r.proofValues("nack_s")}
	case binSignedAck:
		return r.signedAck("gsbs_ack")
	case binDecidedCert:
		dc := DecidedCert{Round: int(r.varint("decided_cert")), Value: r.set("decided_cert")}
		n := r.count("decided_cert", 8)
		if r.err != nil {
			return nil
		}
		dc.Acks = make([]SignedAck, 0, n)
		for i := 0; i < n; i++ {
			dc.Acks = append(dc.Acks, r.signedAck("decided_cert"))
		}
		return dc
	case binWakeup:
		return Wakeup{Tag: r.str("wakeup")}
	case binJunk:
		return Junk{Blob: r.str("junk")}
	case binShard:
		return ShardMsg{Shard: int(r.varint("shard")), Inner: r.msg()}
	case binCkptProp:
		return CkptProp{
			Epoch: int(r.varint("ckpt_prop")),
			Round: int(r.varint("ckpt_prop")),
			Len:   int(r.varint("ckpt_prop")),
			Dig:   r.digest("ckpt_prop"),
			From:  r.pid("ckpt_prop"),
		}
	case binCkptSig:
		return r.ckptSig("ckpt_sig")
	case binCkptCert:
		c := CkptCert{
			Epoch: int(r.varint("ckpt_cert")),
			Round: int(r.varint("ckpt_cert")),
			Len:   int(r.varint("ckpt_cert")),
			Dig:   r.digest("ckpt_cert"),
			Image: r.bytes("ckpt_cert"),
		}
		n := r.count("ckpt_cert", 38)
		if r.err != nil {
			return nil
		}
		c.Sigs = make([]CkptSig, 0, n)
		for i := 0; i < n; i++ {
			c.Sigs = append(c.Sigs, r.ckptSig("ckpt_cert"))
		}
		return c
	case binStateReq:
		return StateReq{Dig: r.digest("state_req")}
	case binStateRep:
		inner := r.msg()
		cert, ok := inner.(CkptCert)
		if !ok {
			r.fail("state_rep cert")
			return nil
		}
		return StateRep{Cert: cert, Value: r.set("state_rep")}
	case binDeltaFrame:
		if r.err == nil {
			r.err = errors.New("msg: delta frames require a stateful DeltaDecoder")
		}
		return nil
	case binDeltaNack:
		return DeltaNack{Seq: r.uvarint("delta_nack")}
	default:
		r.fail(fmt.Sprintf("kind %d", kind))
		return nil
	}
}

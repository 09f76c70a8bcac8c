package msg

import (
	"fmt"
	"strconv"

	"bgla/internal/ident"
	"bgla/internal/lattice"
)

// KeyOf returns a canonical identity string for a message: its binary
// frame. Equal messages produce equal keys, and the codec is injective
// (every frame decodes back to its message), so distinct messages
// produce distinct keys. Sets encode as their flattened canonical item
// sequence, so representation details (anchors, windows) do not leak
// into the key.
func KeyOf(m Msg) string {
	data, err := EncodeBinary(m)
	if err != nil {
		// Only reachable for message types with no binary encoding
		// (hand-crafted test payloads); fall back to a non-colliding
		// representation.
		return fmt.Sprintf("!err:%T:%v", m, m)
	}
	return string(data)
}

// PayloadKey is the O(1)-in-history identity of a message: structural
// fields plus the 32-byte content digest of any carried lattice set,
// instead of the set's full serialization. Faultnet fingerprints every
// traced message with it, and the RBC layer keys any payload other than
// Disclosure and AckB with it (those two it keys by the same fields as
// a comparable struct); distinct payloads map to distinct keys under
// the same digest collision-resistance assumption the ack tallies and
// signature preimages already rest on (DESIGN.md §4). Message types
// without a compact structural form fall back to KeyOf.
func PayloadKey(m Msg) string {
	switch v := m.(type) {
	case Disclosure:
		return string(appendKey3(make([]byte, 0, 48), "dc|", int64(v.Round), -1, -1, v.Value))
	case AckReq:
		return string(appendKey3(make([]byte, 0, 48), "aq|", int64(v.TS), int64(v.Round), -1, v.Proposed))
	case Ack:
		return string(appendKey3(make([]byte, 0, 48), "ak|", int64(v.TS), int64(v.Round), -1, v.Accepted))
	case Nack:
		return string(appendKey3(make([]byte, 0, 48), "nk|", int64(v.TS), int64(v.Round), -1, v.Accepted))
	case AckB:
		return string(appendKey3(make([]byte, 0, 64), "ab|", int64(v.Dest), int64(v.TS), int64(v.Round), v.Accepted))
	case Decide:
		return string(appendKey3(make([]byte, 0, 48), "de|", int64(v.Round), -1, -1, v.Value))
	case CnfReq:
		return "cq|" + v.Value.Key()
	case CnfRep:
		return "cp|" + v.Value.Key()
	case NewValue:
		b := append(make([]byte, 0, 32+len(v.Cmd.Body)), "nv|"...)
		b = strconv.AppendInt(b, int64(v.Cmd.Author), 10)
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(len(v.Cmd.Body)), 10)
		b = append(b, '|')
		b = append(b, v.Cmd.Body...)
		return string(b)
	case RBCSend:
		return rbcKey("rs|", v.Src, v.Tag, v.Payload)
	case RBCEcho:
		return rbcKey("re|", v.Src, v.Tag, v.Payload)
	case RBCReady:
		return rbcKey("rr|", v.Src, v.Tag, v.Payload)
	case ShardMsg:
		b := append(make([]byte, 0, 64), "sh|"...)
		b = strconv.AppendInt(b, int64(v.Shard), 10)
		b = append(b, '|')
		b = append(b, PayloadKey(v.Inner)...)
		return string(b)
	default:
		return KeyOf(m)
	}
}

// rbcKey builds "<prefix><src>|<len(tag)>|<tag>|<PayloadKey(payload)>";
// the tag's length prefix keeps tags containing '|' unambiguous.
func rbcKey(prefix string, src ident.ProcessID, tag string, payload Msg) string {
	b := append(make([]byte, 0, 64+len(tag)), prefix...)
	b = strconv.AppendInt(b, int64(src), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(tag)), 10)
	b = append(b, '|')
	b = append(b, tag...)
	b = append(b, '|')
	b = append(b, PayloadKey(payload)...)
	return string(b)
}

// appendKey3 builds "<prefix><a>|[<b>|[<c>|]]<digest-bytes>" with the
// numeric fields present while >= 0, mirroring the former Sprintf
// formats without their per-call reflection and temporaries — payload
// keys are computed for every RBC echo/ready, so this is warm.
func appendKey3(b []byte, prefix string, a, bb, c int64, s lattice.Set) []byte {
	b = append(b, prefix...)
	b = strconv.AppendInt(b, a, 10)
	b = append(b, '|')
	if bb >= 0 {
		b = strconv.AppendInt(b, bb, 10)
		b = append(b, '|')
	}
	if c >= 0 {
		b = strconv.AppendInt(b, c, 10)
		b = append(b, '|')
	}
	d := s.Digest()
	return append(b, d[:]...)
}

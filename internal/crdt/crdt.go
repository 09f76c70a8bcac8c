// Package crdt implements commutative replicated data types on top of
// the RSM: command encodings plus pure view functions that fold a
// decided lattice element (a set of commands) into the data type's
// state. Because the RSM decides growing, mutually comparable command
// sets, every view is a consistent snapshot and views taken from later
// decisions are refinements of earlier ones — exactly the set-counter
// scenario motivating the paper's introduction (Figure 1).
//
// Commands commute by construction: views depend only on the *set* of
// commands, never on arrival order. Malformed command bodies (e.g.
// injected by Byzantine clients) are ignored by the views, implementing
// the "correct replicas filter out inadmissible commands" rule of §7.2.
package crdt

import (
	"sort"
	"strconv"
	"strings"

	"bgla/internal/lattice"
)

// Command type tags.
const (
	tagAdd = "add"
	tagRem = "rem"
	tagInc = "inc"
	tagDec = "dec"
	tagPut = "put"
)

// AddCmd encodes a set-add command (G-Set / 2P-Set).
func AddCmd(elem string) string { return tagAdd + "|" + escape(elem) }

// RemCmd encodes a set-remove command (2P-Set: remove wins, once
// removed an element never returns).
func RemCmd(elem string) string { return tagRem + "|" + escape(elem) }

// IncCmd encodes a counter increment.
func IncCmd(amount uint64) string { return tagInc + "|" + strconv.FormatUint(amount, 10) }

// DecCmd encodes a counter decrement (PN-Counter).
func DecCmd(amount uint64) string { return tagDec + "|" + strconv.FormatUint(amount, 10) }

// PutCmd encodes a last-writer-wins map write. Stamp orders writes;
// ties break on the raw command body, which is unique per client.
func PutCmd(key string, stamp uint64, value string) string {
	return tagPut + "|" + strconv.FormatUint(stamp, 10) + "|" + escape(key) + "|" + escape(value)
}

// escape makes an arbitrary byte string safe to embed in a command
// body: '|' (the field separator), '\' (the escape lead) and NUL (the
// uniqueness-suffix delimiter stripUnique cuts at) are rewritten to
// two-byte escapes. The mapping is injective — "\\0" (a literal
// backslash then '0') and "\0" (an escaped NUL) cannot collide because
// a literal backslash always escapes to "\\".
func escape(s string) string {
	if !strings.ContainsAny(s, "|\\\x00") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '|':
			b.WriteString(`\|`)
		case '\\':
			b.WriteString(`\\`)
		case 0:
			b.WriteString(`\0`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// stripUnique removes the uniqueness suffix ("\x00<seq>") appended by
// RSM clients to make identical commands distinct items. Views parse
// the clean body; distinctness is preserved at the lattice layer where
// the raw bodies differ.
func stripUnique(body string) string {
	if i := strings.IndexByte(body, 0); i >= 0 {
		return body[:i]
	}
	return body
}

// unescapeKeySplit parses an escaped field up to the next unescaped
// '|' separator, returning the decoded field and the raw remainder.
// Hostile bodies (Byzantine authors craft arbitrary bytes) must never
// round-trip into a different key than an honest encoding: a dangling
// escape lead (trailing '\') or an unknown escape pair is rejected
// outright rather than passed through, so every accepted field is the
// image of exactly one escape() input.
func unescapeKeySplit(s string) (key, rest string, ok bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\':
			if i+1 >= len(s) {
				return "", "", false // dangling escape lead
			}
			switch s[i+1] {
			case '|':
				b.WriteByte('|')
			case '\\':
				b.WriteByte('\\')
			case '0':
				b.WriteByte(0)
			default:
				return "", "", false // unknown escape pair
			}
			i++
		case s[i] == '|':
			return b.String(), s[i+1:], true
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", false
}

// unescapeTail decodes a final escaped field (no separator follows).
func unescapeTail(s string) (string, bool) {
	field, rest, ok := unescapeKeySplit(s + "|")
	if !ok || rest != "" {
		return "", false
	}
	return field, true
}

// RoutingKey extracts the data-item key a command addresses: the map
// key of a put, the element of a set add/remove. Commands touching the
// same key must colocate on one lattice shard so per-key semantics
// (LWW ordering, remove-wins) fold over a single totally-ordered
// history; keyless commands (counter inc/dec, malformed bodies) report
// ok=false and may be hash-partitioned freely — their views are
// order-free sums, indifferent to placement.
func RoutingKey(body string) (key string, ok bool) {
	tag, rest, found := strings.Cut(stripUnique(body), "|")
	if !found {
		return "", false
	}
	switch tag {
	case tagAdd, tagRem:
		elem, okE := unescapeTail(rest)
		if !okE {
			return "", false
		}
		return elem, true
	case tagPut:
		_, rest2, okS := strings.Cut(rest, "|")
		if !okS {
			return "", false
		}
		k, _, okK := unescapeKeySplit(rest2)
		if !okK {
			return "", false
		}
		return k, true
	default:
		return "", false
	}
}

// SetView folds set commands into the 2P-Set membership: an element is
// present iff some add command names it and no remove command does.
// The result is sorted.
func SetView(s lattice.Set) []string {
	added := map[string]bool{}
	removed := map[string]bool{}
	s.Each(func(it lattice.Item) bool {
		tag, rest, ok := strings.Cut(stripUnique(it.Body), "|")
		if !ok {
			return true
		}
		elem, okE := unescapeTail(rest)
		if !okE {
			return true
		}
		switch tag {
		case tagAdd:
			added[elem] = true
		case tagRem:
			removed[elem] = true
		}
		return true
	})
	var out []string
	for e := range added {
		if !removed[e] {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// CounterView folds inc/dec commands into a PN-Counter value. Each
// command counts once regardless of how it is replicated (commands are
// unique items in the lattice).
func CounterView(s lattice.Set) int64 {
	var total int64
	s.Each(func(it lattice.Item) bool {
		tag, rest, ok := strings.Cut(stripUnique(it.Body), "|")
		if !ok {
			return true
		}
		v, err := strconv.ParseUint(rest, 10, 63)
		if err != nil {
			return true
		}
		switch tag {
		case tagInc:
			total += int64(v)
		case tagDec:
			total -= int64(v)
		}
		return true
	})
	return total
}

// ParsePut decodes a put command body (PutCmd, with or without a
// uniqueness suffix); ok is false for any other body.
func ParsePut(body string) (key, value string, stamp uint64, ok bool) {
	tag, rest, ok := strings.Cut(stripUnique(body), "|")
	if !ok || tag != tagPut {
		return "", "", 0, false
	}
	stampStr, rest, ok := strings.Cut(rest, "|")
	if !ok {
		return "", "", 0, false
	}
	stamp, err := strconv.ParseUint(stampStr, 10, 64)
	if err != nil {
		return "", "", 0, false
	}
	key, rawValue, ok := unescapeKeySplit(rest)
	if !ok {
		return "", "", 0, false
	}
	if value, ok = unescapeTail(rawValue); !ok {
		return "", "", 0, false
	}
	return key, value, stamp, true
}

// MapView folds put commands into a last-writer-wins map: for each key
// the write with the highest (stamp, body) pair wins.
func MapView(s lattice.Set) map[string]string {
	type winner struct {
		stamp uint64
		body  string
		value string
	}
	best := map[string]winner{}
	s.Each(func(it lattice.Item) bool {
		key, value, stamp, ok := ParsePut(it.Body)
		if !ok {
			return true
		}
		cur, seen := best[key]
		if !seen || stamp > cur.stamp || (stamp == cur.stamp && it.Body > cur.body) {
			best[key] = winner{stamp: stamp, body: it.Body, value: value}
		}
		return true
	})
	out := make(map[string]string, len(best))
	for k, w := range best {
		out[k] = w.value
	}
	return out
}

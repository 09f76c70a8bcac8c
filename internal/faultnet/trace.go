package faultnet

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"

	"bgla/internal/ident"
	"bgla/internal/msg"
)

// Trace records the delivery sequence of a run in a canonical text
// form: one line per delivery with step index, virtual time, sender,
// receiver, message kind and a content fingerprint. Two runs of the
// same seeded scenario must produce byte-identical traces — the
// determinism contract the scenario suite asserts.
type Trace struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines int
}

// record appends one delivery line.
func (t *Trace) record(step, vt uint64, from, to ident.ProcessID, m msg.Msg) {
	kind, key := describe(m)
	t.mu.Lock()
	fmt.Fprintf(&t.buf, "%06d t%06d %v>%v %s %s\n", step, vt, from, to, kind, key)
	t.lines++
	t.mu.Unlock()
}

// describe renders a message kind (shard envelopes unwrapped for
// readability) and a short deterministic content fingerprint.
// PayloadKey keeps the fingerprint O(1) in history (set digests, not
// serializations); shard envelopes hash their inner payload so the
// envelope does not force the full-frame fallback.
func describe(m msg.Msg) (string, string) {
	kind := string(m.Kind())
	if sm, ok := m.(msg.ShardMsg); ok && sm.Inner != nil {
		kind = fmt.Sprintf("s%d:%s", sm.Shard, sm.Inner.Kind())
		m = sm.Inner
	}
	sum := sha256.Sum256([]byte(msg.PayloadKey(m)))
	return kind, fmt.Sprintf("%x", sum[:6])
}

// Bytes returns the trace contents so far.
func (t *Trace) Bytes() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]byte, t.buf.Len())
	copy(out, t.buf.Bytes())
	return out
}

// Lines returns the number of deliveries recorded.
func (t *Trace) Lines() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lines
}

// Fingerprint is a short hash of the whole trace (log-friendly).
func (t *Trace) Fingerprint() string {
	sum := sha256.Sum256(t.Bytes())
	return fmt.Sprintf("%x", sum[:8])
}

// Diff returns a human-readable description of the first divergence
// between two traces ("" when identical) — the replay debugging aid.
func Diff(a, b *Trace) string {
	ab, bb := a.Bytes(), b.Bytes()
	if bytes.Equal(ab, bb) {
		return ""
	}
	al, bl := bytes.Split(ab, []byte("\n")), bytes.Split(bb, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("traces diverge at line %d:\n  run A: %s\n  run B: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("traces diverge in length: %d vs %d lines", len(al), len(bl))
}

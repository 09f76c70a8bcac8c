package obs

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// EventKind names one consensus trace event type. The taxonomy covers
// the paper's per-round cost structure (propose/ack/tally/decide for
// GWTS rounds) plus the compaction and durability layers.
type EventKind string

const (
	EvPropose       EventKind = "propose"        // proposer broadcasts its value (Alg 3 line 4)
	EvAck           EventKind = "ack"            // acceptor accepts and echoes (Alg 4)
	EvTally         EventKind = "tally"          // proposer counts an ackB vote
	EvDecide        EventKind = "decide"         // quorum reached, value decided
	EvCkptInstall   EventKind = "ckpt_install"   // checkpoint certificate installed
	EvStateTransfer EventKind = "state_transfer" // lagging-replica state request/reply
	EvWalSync       EventKind = "wal_sync"       // durable log fsync batch
)

// Event is one structured consensus trace record.
type Event struct {
	T      uint64    // clock timestamp (virtual ticks or UnixNano)
	Kind   EventKind // event type
	Shard  int       // owning shard (0 for the unsharded Service)
	Proc   string    // emitting process
	Round  int       // GWTS round / checkpoint epoch / WAL seq, per kind
	Key    string    // kind-specific subject (digest, peer, ...)
	Detail string    // free-form remainder (counts, sizes)
}

// Tracer accumulates events as canonical text lines. The line format
// is fixed so that two same-seed faultnet runs produce byte-identical
// buffers. A nil *Tracer is a valid no-op sink: every emission site
// may call Emit unconditionally.
type Tracer struct {
	mu  sync.Mutex
	buf strings.Builder
	n   int
}

// Emit appends one event. Safe for concurrent use; no-op on nil.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	fmt.Fprintf(&t.buf, "t=%d s=%d p=%s %s r=%d k=%s %s\n",
		ev.T, ev.Shard, ev.Proc, ev.Kind, ev.Round, ev.Key, ev.Detail)
	t.n++
	t.mu.Unlock()
}

// Len returns the number of events recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Bytes returns a copy of the canonical trace text.
func (t *Tracer) Bytes() []byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return []byte(t.buf.String())
}

// Lines splits the trace into its event lines.
func (t *Tracer) Lines() []string {
	s := string(t.Bytes())
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

// Fingerprint hashes the canonical text (FNV-1a); equal fingerprints
// on same-seed runs are the byte-stability check.
func (t *Tracer) Fingerprint() uint64 {
	h := fnv.New64a()
	h.Write(t.Bytes())
	return h.Sum64()
}

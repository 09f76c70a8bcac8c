package main

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgla"
)

// oracle checks the program's outputs against what the bench offered.
// Every table is indexed by update id. Tables are appended to only
// between phases (single goroutine); during a phase each id's issued
// and ackedAt slots are written by the one goroutine executing that op
// and read after the phase's WaitGroup, so no lock is needed on them.
type oracle struct {
	start   time.Time
	keys    []string         // update id → key (stamp = id+1)
	issued  []bool           // sent to the cluster
	ackedAt []time.Duration  // acknowledged at (since start); 0 = not acked
	bodies  map[string]int32 // update body → id

	mu         sync.Mutex
	samples    []readSample
	violations []string
}

// readSample is one checked confirmed read, reduced to a bitset over
// update ids so holding it costs bytes, not the item slice.
type readSample struct {
	scope    int // shard index, or -1 for the whole state
	issuedAt time.Duration
	seen     bitset
}

type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int32) bool { return int(i>>6) < len(b) && b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// subsetOf reports b ⊆ o.
func (b bitset) subsetOf(o bitset) bool {
	for i, w := range b {
		var ow uint64
		if i < len(o) {
			ow = o[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

func newOracle() *oracle {
	return &oracle{start: time.Now(), bodies: map[string]int32{}}
}

// offer registers an update about to be scheduled and returns its id.
func (o *oracle) offer(key string) int32 {
	o.keys = append(o.keys, key)
	o.issued = append(o.issued, false)
	o.ackedAt = append(o.ackedAt, 0)
	return int32(len(o.keys) - 1)
}

func (o *oracle) violate(format string, args ...any) {
	o.mu.Lock()
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// toBits maps a read's items onto update ids; an item the bench never
// offered is a violation (state ⊆ offered updates).
func (o *oracle) toBits(items []bgla.Item, what string) bitset {
	seen := make(bitset, (len(o.keys)+63)/64)
	for _, it := range items {
		body, _, _ := strings.Cut(it.Body, "\x00") // uniqueness suffix
		id, ok := o.bodies[body]
		if !ok {
			o.violate("%s: item %q was never offered", what, body)
			continue
		}
		seen.set(id)
	}
	return seen
}

// sampleRead records one confirmed read for the post-run checks.
func (o *oracle) sampleRead(items []bgla.Item, scope int, issuedAt time.Duration) {
	s := readSample{scope: scope, issuedAt: issuedAt, seen: o.toBits(items, "sampled read")}
	o.mu.Lock()
	o.samples = append(o.samples, s)
	o.mu.Unlock()
}

// inScope reports whether update id belongs to the part of the state a
// read with this scope covers.
func (o *oracle) inScope(t target, id int32, scope int) bool {
	return scope < 0 || t.Scope(o.keys[id]) == scope
}

// checkSamples verifies, after the phases ended, that every sampled
// read contains each update acknowledged before the read was issued
// and that same-scope samples form a ⊆-chain (the paper's
// comparability of confirmed reads).
func (o *oracle) checkSamples(t target) {
	byScope := map[int][]readSample{}
	for _, s := range o.samples {
		byScope[s.scope] = append(byScope[s.scope], s)
		for id, at := range o.ackedAt {
			if at != 0 && at < s.issuedAt && o.inScope(t, int32(id), s.scope) && !s.seen.has(int32(id)) {
				o.violate("read issued at %v misses update %d acknowledged at %v", s.issuedAt, id, at)
				break
			}
		}
	}
	for scope, ss := range byScope {
		sort.Slice(ss, func(i, j int) bool { return ss[i].seen.count() < ss[j].seen.count() })
		for i := 1; i < len(ss); i++ {
			if !ss[i-1].seen.subsetOf(ss[i].seen) {
				o.violate("scope %d: sampled reads %d and %d are incomparable", scope, i-1, i)
			}
		}
	}
}

// checkContainsAcked verifies a whole-state read: ⊇ every acknowledged
// update, ⊆ issued updates.
func (o *oracle) checkContainsAcked(items []bgla.Item, what string) bitset {
	seen := o.toBits(items, what)
	for id, at := range o.ackedAt {
		if at != 0 && !seen.has(int32(id)) {
			o.violate("%s misses acknowledged update %d", what, id)
			break
		}
	}
	for id := range o.keys {
		if seen.has(int32(id)) && !o.issued[id] {
			o.violate("%s holds update %d that was never issued", what, id)
			break
		}
	}
	return seen
}

// checkFinal runs the end-of-run checks on a quiescent cluster: the
// final whole-state read against acknowledged/issued updates, the LWW
// map value per key, and (sharded) Scan = union of per-shard reads.
func (o *oracle) checkFinal(t target, shards int) error {
	items, err := t.Scan()
	if err != nil {
		return fmt.Errorf("final read: %w", err)
	}
	seen := o.checkContainsAcked(items, "final read")
	top := map[string]uint64{} // key → highest stamp present
	for id, key := range o.keys {
		if seen.has(int32(id)) && uint64(id)+1 > top[key] {
			top[key] = uint64(id) + 1
		}
	}
	view := bgla.MapView(items)
	if len(view) != len(top) {
		o.violate("MapView has %d keys, want %d", len(view), len(top))
	}
	for key, stamp := range top {
		if want := "v" + strconv.FormatUint(stamp, 10); view[key] != want {
			o.violate("MapView[%s] = %q, want %q", key, view[key], want)
			break
		}
	}
	if shards > 1 {
		// One key per shard: a point read returns its key's whole shard.
		union := make(bitset, len(seen))
		read := map[int]bool{}
		for _, key := range o.keys {
			if len(read) == shards {
				break
			}
			if sc := t.Scope(key); !read[sc] {
				read[sc] = true
				part, err := t.Read(key)
				if err != nil {
					return fmt.Errorf("final shard read: %w", err)
				}
				for i, w := range o.toBits(part, "final shard read") {
					union[i] |= w
				}
			}
		}
		if !union.subsetOf(seen) || !seen.subsetOf(union) {
			o.violate("final Scan (%d items) differs from the union of per-shard reads (%d)", seen.count(), union.count())
		}
	}
	return nil
}

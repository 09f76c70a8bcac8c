package lattice

import (
	"slices"
	"sort"
	"strings"

	"bgla/internal/ident"
)

// Item is a basic element of the canonical set lattice: an opaque
// payload tagged by the process (or client) that authored it. Tagging
// makes items unique across authors, which is how the paper
// disambiguates commands ("each command is unique", §7.1) and how the
// Non-Triviality accounting attributes values to Byzantine proposers.
type Item struct {
	Author ident.ProcessID
	Body   string
}

// Less orders items by (Author, Body); Set stores items in this order.
func (a Item) Less(b Item) bool {
	if a.Author != b.Author {
		return a.Author < b.Author
	}
	return a.Body < b.Body
}

// String renders "p2:body".
func (a Item) String() string { return a.Author.String() + ":" + a.Body }

// Set is an immutable element of the canonical set semilattice: a sorted
// duplicate-free collection of Items. The zero value is the bottom
// element ⊥ (the empty set). All operations return new Sets; callers
// may freely share Set values across goroutines.
//
// Every Set carries its content Digest, computed at construction and
// maintained incrementally by Union (joining d new items costs O(d)
// hash work), so identity operations — Key, Equal, map lookups, wire
// base references — are O(1) regardless of how large the set has grown.
//
// A Set may additionally be *compacted*: anchored on a shared *Base (a
// certified checkpoint prefix), it stores only the window of items
// beyond the base. The logical value is base ∪ window, the Digest is
// the digest of that logical value (representation-independent), and
// operations between two sets anchored on the same base content run on
// the windows alone — O(window) instead of O(history). Mixed-
// representation operations fall back to a full merge over both
// logical item sequences, which stays correct because the base carries
// its items. See internal/compact and DESIGN.md §6.
type Set struct {
	items []Item // window items: sorted by Item.Less, no duplicates, disjoint from base
	dig   Digest // accumulator over base ∪ items; zero for ⊥
	base  *Base  // optional certified prefix (nil = flat set)
}

// Base is an immutable certified prefix shared (by pointer) between
// many compacted Sets. It holds the prefix as a flat Set so that
// mixed-representation operations and state transfer can always reach
// the underlying items.
type Base struct {
	set Set // flat: set.base == nil

	// Chain record: when the base was frozen from a set that was itself
	// anchored, prev is the digest of that older anchor and delta the
	// (sorted) window beyond it, so set = prev-anchor ∪ delta. Rebase
	// uses it to re-anchor sibling sets sharing the old anchor with a
	// linear merge over two windows instead of an O(history) pass.
	prev  *Digest
	delta []Item
}

// NewBase freezes s (flattened) as a shareable prefix.
func NewBase(s Set) *Base {
	if s.base != nil {
		pd := s.base.set.dig
		return &Base{set: s.Flatten(), prev: &pd, delta: s.items}
	}
	return &Base{set: s.Flatten()}
}

// Set returns the prefix as a flat Set (zero Set for a nil base).
func (b *Base) Set() Set {
	if b == nil {
		return Set{}
	}
	return b.set
}

// Len returns the prefix size (0 for nil).
func (b *Base) Len() int {
	if b == nil {
		return 0
	}
	return len(b.set.items)
}

// Digest returns the prefix content digest (EmptyDigest for nil).
func (b *Base) Digest() Digest {
	if b == nil {
		return EmptyDigest
	}
	return b.set.dig
}

// Empty returns ⊥.
func Empty() Set { return Set{} }

// Singleton returns {it}.
func Singleton(it Item) Set {
	var d Digest
	d.add(itemHash(it))
	return Set{items: []Item{it}, dig: d}
}

// FromItems builds a Set from arbitrary items (deduplicated, sorted).
func FromItems(items ...Item) Set {
	out := sortedUnique(items)
	return Set{items: out, dig: digestOf(out)}
}

// sortedUnique returns a sorted duplicate-free copy of items.
func sortedUnique(items []Item) []Item {
	if len(items) == 0 {
		return nil
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	out := cp[:1]
	for _, it := range cp[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// FromStrings builds a Set of items authored by author, one per body.
func FromStrings(author ident.ProcessID, bodies ...string) Set {
	items := make([]Item, len(bodies))
	for i, b := range bodies {
		items[i] = Item{Author: author, Body: b}
	}
	return FromItems(items...)
}

// Len returns |s| (base plus window).
func (s Set) Len() int { return len(s.items) + s.base.Len() }

// IsEmpty reports s == ⊥.
func (s Set) IsEmpty() bool { return s.Len() == 0 }

// Items returns the items in canonical order. The returned slice is a
// fresh copy — mutating it cannot corrupt the set's digest invariant.
// Prefer Each to iterate without the allocation.
func (s Set) Items() []Item {
	if s.base == nil {
		out := make([]Item, len(s.items))
		copy(out, s.items)
		return out
	}
	return mergeItems(s.base.set.items, s.items)
}

// Each calls fn for every item in canonical order until fn returns
// false. It never allocates, which makes it the right shape for hot
// fold paths (CRDT views, nop stripping) now that Items copies.
func (s Set) Each(fn func(Item) bool) {
	it := s.iter()
	for {
		v, ok := it.next()
		if !ok {
			return
		}
		if !fn(v) {
			return
		}
	}
}

// Filter returns the items of s for which keep reports true, as a flat
// set. One walk: the items come out of Each already in canonical order,
// so nothing is sorted, and the digest is s's minus the hashes of the
// dropped items, so only those are hashed. The result slice is the only
// allocation.
func (s Set) Filter(keep func(Item) bool) Set {
	out := make([]Item, 0, s.Len())
	dig := s.dig
	s.Each(func(it Item) bool {
		if keep(it) {
			out = append(out, it)
		} else {
			dig.sub(itemHash(it))
		}
		return true
	})
	if len(out) == 0 {
		return Set{}
	}
	return Set{items: out, dig: dig}
}

// EachMerged calls fn for every item of the union of sets, in canonical
// order and once each, until fn returns false: a k-way merge over the
// sets' item sequences that neither sorts nor hashes.
func EachMerged(sets []Set, fn func(Item) bool) {
	type head struct {
		it itemIter
		v  Item
		ok bool
	}
	hs := make([]head, len(sets))
	for k, s := range sets {
		hs[k].it = s.iter()
		hs[k].v, hs[k].ok = hs[k].it.next()
	}
	for {
		m := -1
		for k := range hs {
			if hs[k].ok && (m < 0 || hs[k].v.Less(hs[m].v)) {
				m = k
			}
		}
		if m < 0 {
			return
		}
		v := hs[m].v
		if !fn(v) {
			return
		}
		for k := range hs {
			if hs[k].ok && hs[k].v == v {
				hs[k].v, hs[k].ok = hs[k].it.next()
			}
		}
	}
}

// iter walks the logical item sequence (base merged with window).
type itemIter struct {
	a, b []Item
	i, j int
}

func (s Set) iter() itemIter {
	if s.base == nil {
		return itemIter{b: s.items}
	}
	return itemIter{a: s.base.set.items, b: s.items}
}

func (it *itemIter) next() (Item, bool) {
	switch {
	case it.i < len(it.a) && it.j < len(it.b):
		x, y := it.a[it.i], it.b[it.j]
		if x == y { // defensive: base and window are disjoint by invariant
			it.i++
			it.j++
			return x, true
		}
		if x.Less(y) {
			it.i++
			return x, true
		}
		it.j++
		return y, true
	case it.i < len(it.a):
		x := it.a[it.i]
		it.i++
		return x, true
	case it.j < len(it.b):
		y := it.b[it.j]
		it.j++
		return y, true
	default:
		return Item{}, false
	}
}

// mergeItems merges two sorted duplicate-free slices into a fresh one.
func mergeItems(a, b []Item) []Item {
	out := make([]Item, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x == y:
			out = append(out, x)
			i++
			j++
		case x.Less(y):
			out = append(out, x)
			i++
		default:
			out = append(out, y)
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// containsSorted reports it ∈ items via binary search.
func containsSorted(items []Item, it Item) bool {
	i := sort.Search(len(items), func(i int) bool { return !items[i].Less(it) })
	return i < len(items) && items[i] == it
}

// Contains reports it ∈ s.
func (s Set) Contains(it Item) bool {
	if containsSorted(s.items, it) {
		return true
	}
	return s.base != nil && containsSorted(s.base.set.items, it)
}

// sameBase reports whether two sets are anchored on the same prefix
// content (pointer identity or equal base digests): their windows are
// then both disjoint from the identical base, so window-only operations
// are exact.
func sameBase(s, t Set) bool {
	if s.base == t.base {
		return s.base != nil
	}
	return s.base != nil && t.base != nil && s.base.set.dig == t.base.set.dig
}

// Union returns s ⊕ t (set union), the lattice join. When both sides
// share a base the join runs on the windows alone.
func (s Set) Union(t Set) Set {
	if s.IsEmpty() {
		return t
	}
	if t.IsEmpty() {
		return s
	}
	// Fast path: t ⊆ s or s ⊆ t avoids allocation.
	if t.SubsetOf(s) {
		return s
	}
	if s.SubsetOf(t) {
		return t
	}
	if sameBase(s, t) {
		items, dig := unionWindows(s.items, t.items, s.dig)
		return Set{items: items, dig: dig, base: s.base}
	}
	if s.base != nil || t.base != nil {
		// Anchor the result on the deeper base; the other side's items
		// beyond that base form an ordinary window contribution.
		a, b := s, t
		if b.base.Len() > a.base.Len() {
			a, b = b, a
		}
		w := b.windowBeyond(a.base) // items of b outside a's base
		items, dig := unionWindows(a.items, w, a.dig)
		return Set{items: items, dig: dig, base: a.base}
	}
	items, dig := unionWindows(s.items, t.items, s.dig)
	return Set{items: items, dig: dig}
}

// unionWindows merges two sorted, duplicate-free slices that are both
// disjoint from the same (possibly empty) base. The digest is
// maintained incrementally: start from the accumulator covering a and
// fold in only the items b contributes, so the hash work of a join is
// proportional to the delta, not to the merged size.
func unionWindows(a, b []Item, aDig Digest) ([]Item, Digest) {
	out := make([]Item, 0, len(a)+len(b))
	dig := aDig
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x == y:
			out = append(out, x)
			i++
			j++
		case x.Less(y):
			out = append(out, x)
			i++
		default:
			out = append(out, y)
			dig.add(itemHash(y))
			j++
		}
	}
	out = append(out, a[i:]...)
	for _, y := range b[j:] {
		out = append(out, y)
		dig.add(itemHash(y))
	}
	return out, dig
}

// windowBeyond returns s's logical items outside base's prefix, as a
// sorted slice. When s already sits on that base content this is its
// window verbatim.
func (s Set) windowBeyond(base *Base) []Item {
	if base == nil {
		return s.Items()
	}
	if s.base != nil && s.base.set.dig == base.set.dig {
		return s.items
	}
	bi := base.set.items
	var out []Item
	it := s.iter()
	for {
		v, ok := it.next()
		if !ok {
			return out
		}
		if !containsSorted(bi, v) {
			out = append(out, v)
		}
	}
}

// SubsetOf reports s ⊆ t, i.e. s ≤ t in the lattice order.
func (s Set) SubsetOf(t Set) bool {
	sl, tl := s.Len(), t.Len()
	if sl > tl {
		return false
	}
	if sl == tl {
		return s.dig == t.dig // equal-size subset ⇔ equality: O(1)
	}
	if sameBase(s, t) {
		return subsetOfSorted(s.items, t.items)
	}
	if s.base == nil && t.base == nil {
		return subsetOfSorted(s.items, t.items)
	}
	// Mixed representations. A small flat side (the common shape:
	// "is this fresh client value already in the anchored set?") is
	// answered by per-item binary search — O(|s|·log|t|) — instead of
	// the merge walk over both full sequences, which would silently
	// reintroduce an O(history) cost per submitted value.
	if s.base == nil && len(s.items)*16 < tl {
		for _, it := range s.items {
			if !t.Contains(it) {
				return false
			}
		}
		return true
	}
	// General case: merge-walk the two logical sequences.
	si, ti := s.iter(), t.iter()
	sv, sok := si.next()
	tv, tok := ti.next()
	for sok {
		if !tok {
			return false
		}
		switch {
		case sv == tv:
			sv, sok = si.next()
			tv, tok = ti.next()
		case tv.Less(sv):
			tv, tok = ti.next()
		default: // sv < tv: sv missing from t
			return false
		}
	}
	return true
}

// subsetOfSorted reports a ⊆ b over sorted duplicate-free slices,
// choosing between a per-item binary search (a much smaller than b: the
// "is this delta already in the big set?" shape that runs once per
// protocol message) and the linear merge walk (comparable sizes).
func subsetOfSorted(a, b []Item) bool {
	if len(a) > len(b) {
		return false
	}
	if len(a)*16 < len(b) {
		for _, it := range a {
			if !containsSorted(b, it) {
				return false
			}
		}
		return true
	}
	return subsetSorted(a, b)
}

// minusContained returns w \ d over sorted duplicate-free slices,
// with ok=false (and no result) unless d ⊆ w.
func minusContained(w, d []Item) ([]Item, bool) {
	if len(d) > len(w) {
		return nil, false
	}
	out := make([]Item, 0, len(w)-len(d))
	j := 0
	for _, it := range w {
		if j < len(d) {
			if !it.Less(d[j]) && !d[j].Less(it) {
				j++
				continue
			}
			if d[j].Less(it) {
				return nil, false // d has an item missing from w
			}
		}
		out = append(out, it)
	}
	if j != len(d) {
		return nil, false
	}
	return out, true
}

// subsetSorted reports a ⊆ b over sorted duplicate-free slices.
func subsetSorted(a, b []Item) bool {
	if len(a) > len(b) {
		return false
	}
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) {
			return false
		}
		x, y := a[i], b[j]
		switch {
		case x == y:
			i++
			j++
		case y.Less(x):
			j++
		default: // x < y: x missing from b
			return false
		}
	}
	return true
}

// Equal reports s == t in O(1) by comparing cached digests (plus the
// length as a belt-and-braces guard); see Digest for the
// collision-resistance assumption this rests on.
func (s Set) Equal(t Set) bool {
	return s.Len() == t.Len() && s.dig == t.dig
}

// Comparable reports s ≤ t ∨ t ≤ s (the Comparability predicate of the
// LA specification).
func (s Set) Comparable(t Set) bool {
	return s.SubsetOf(t) || t.SubsetOf(s)
}

// Minus returns the items of s not in t. Set difference is not a
// lattice operation and is never used by protocols to shrink proposals —
// it feeds diagnostics, WAL deltas and checkpoint rebasing. Operands of
// one shape merge-walk their windows only; mixed representations walk
// both logical sequences. The wire codec uses AppendDelta instead.
func (s Set) Minus(t Set) []Item { return s.appendMinus(nil, t) }

// sameShape reports that s and t differ only in their windows.
func sameShape(s, t Set) bool {
	return sameBase(s, t) || s.base == nil && t.base == nil
}

func (s Set) appendMinus(dst []Item, t Set) []Item {
	si, ti := s.iter(), t.iter()
	if sameShape(s, t) {
		si, ti = itemIter{b: s.items}, itemIter{b: t.items}
	}
	sv, sok := si.next()
	tv, tok := ti.next()
	for sok {
		switch {
		case tok && sv == tv:
			sv, sok = si.next()
			tv, tok = ti.next()
		case !tok || sv.Less(tv):
			dst = append(dst, sv)
			sv, sok = si.next()
		default:
			tv, tok = ti.next()
		}
	}
	return dst
}

// Digest returns the cached content digest of the set (O(1)). The
// digest addresses the logical value: a compacted set and its flat
// equivalent share one digest.
func (s Set) Digest() Digest { return s.dig }

// Key returns a canonical string key for use in maps (e.g. counting how
// many acceptors acknowledged an identical Accepted_set in GWTS): the
// raw bytes of the cached digest. O(1) — distinct sets have distinct
// keys under the Digest collision-resistance assumption.
func (s Set) Key() string { return string(s.dig[:]) }

// Flatten returns the flat (unanchored) representation of s.
func (s Set) Flatten() Set {
	if s.base == nil {
		return s
	}
	return Set{items: mergeItems(s.base.set.items, s.items), dig: s.dig}
}

// Rebase re-anchors s on base, storing only the window beyond it. It
// requires base ⊆ s (values are monotone joins, so everything live
// after a checkpoint extends the certified prefix); ok reports that.
// The digest is unchanged — rebasing is pure representation.
func (s Set) Rebase(base *Base) (Set, bool) {
	if base == nil || base.Len() == 0 {
		return s.Flatten(), true
	}
	if s.Len() < base.Len() {
		return s, false // a smaller set cannot contain the base
	}
	if s.base != nil && s.base.set.dig == base.set.dig {
		return Set{items: s.items, dig: s.dig, base: base}, true
	}
	if s.base != nil && base.prev != nil && s.base.set.dig == *base.prev {
		// Shared-ancestor fast path: s and the new base are both anchored
		// on the same older prefix, and the base remembers its window
		// beyond it. base ⊆ s iff the recorded delta is contained in s's
		// window, checked structurally during one linear merge — no
		// hashing, no O(history) scan.
		if out, ok := minusContained(s.items, base.delta); ok {
			return Set{items: out, dig: s.dig, base: base}, true
		}
	}
	if s.base != nil && s.base.Len() <= base.Len() {
		// Checkpoint-chain fast path: when the new base extends the old
		// one (certified prefixes are totally ordered and growing), the
		// new window is just the old window minus the new base —
		// O(window·log) instead of an O(history) merge. The additive
		// digest identity verifies the chain assumption for free: if
		// the old base were not contained in the new one, or the new
		// base not contained in s, the accumulator sums cannot match.
		bi := base.set.items
		out := make([]Item, 0, len(s.items))
		d := base.set.dig
		for _, it := range s.items {
			if !containsSorted(bi, it) {
				out = append(out, it)
				d.add(itemHash(it))
			}
		}
		if d == s.dig {
			return Set{items: out, dig: s.dig, base: base}, true
		}
	}
	if !base.set.SubsetOf(s) {
		return s, false
	}
	return Set{items: s.Minus(base.set), dig: s.dig, base: base}, true
}

// TryRebase returns s re-anchored on base when base ⊆ s, and s
// unchanged otherwise: the shape every "rewrite the live sets as base +
// window" pass wants.
func (s Set) TryRebase(base *Base) Set {
	if nb, ok := s.Rebase(base); ok {
		return nb
	}
	return s
}

// SameItems reports that a and b hold the same items, proved
// structurally: both sit on the same *Base pointer (or are both flat)
// and their windows are equal item by item. It never trusts a digest —
// unequal digests only reject early — so a caller may reuse anything it
// computed from one set's items (a checkpoint image hash) for the other.
func SameItems(a, b Set) bool {
	if a.base != b.base || len(a.items) != len(b.items) || a.dig != b.dig {
		return false
	}
	if len(a.items) == 0 || &a.items[0] == &b.items[0] {
		return true // one backing array: the same immutable window
	}
	for i, it := range a.items {
		if it != b.items[i] {
			return false
		}
	}
	return true
}

// BaseInfo reports the anchor of a compacted set: the base content
// digest and size, with ok=false for flat sets.
func (s Set) BaseInfo() (dig Digest, n int, ok bool) {
	if s.base == nil {
		return Digest{}, 0, false
	}
	return s.base.set.dig, s.base.Len(), true
}

// Anchor returns the base s is anchored on (nil for flat sets).
func (s Set) Anchor() *Base { return s.base }

// WindowLen returns the number of items beyond the base (the whole set
// for flat sets).
func (s Set) WindowLen() int { return len(s.items) }

// Window returns the frontier items beyond the base, as a fresh slice.
func (s Set) Window() []Item {
	out := make([]Item, len(s.items))
	copy(out, s.items)
	return out
}

// AppendDelta appends the delta encoding of s against base — the items
// of s missing from base, in canonical order — to dst and reports
// whether base ⊆ s. Delta encoding is only sound then (values are
// monotone joins, so in steady state every retransmitted set extends an
// earlier one); otherwise dst comes back unchanged and the caller must
// fall back to full transmission.
//
// The cost follows what changed, not the history. Equal digests answer
// in O(1). Operands of one shape take d = |s|−|base| galloping searches
// over the windows, O(d·log|window|) comparisons, to find the only
// candidates, and d item hashes to prove them: the additive-digest
// identity base.dig + Σ hash(delta) == s.dig holds iff base ⊆ s. Only
// mixed representations (or a delta that is most of the window) walk.
func (s Set) AppendDelta(dst []Item, base Set) ([]Item, bool) {
	d := s.Len() - base.Len()
	if d <= 0 {
		return dst, d == 0 && s.dig == base.dig
	}
	switch {
	case s.base != nil && s.base.set.dig == base.dig:
		return append(dst, s.items...), true // base is s's own anchor
	case sameShape(s, base) && d*16 <= len(s.items):
		mark := len(dst)
		dst = appendExtras(dst, s.items, base.items)
		sum := base.dig
		for _, it := range dst[mark:] {
			sum.add(itemHash(it))
		}
		if sum != s.dig {
			return dst[:mark], false
		}
		return dst, true
	case !base.SubsetOf(s):
		return dst, false
	}
	return s.appendMinus(dst, base), true
}

// appendExtras appends the len(a)−len(b) items of a that are not in b,
// given sorted duplicate-free slices with b ⊆ a: between two extras a
// and b run in lockstep, so each is found by galloping over the common
// run. When b ⊄ a the result is as many arbitrary items of a, which the
// caller's digest check rejects.
func appendExtras(dst, a, b []Item) []Item {
	for len(a) > len(b) {
		k := matchLen(a, b)
		if k == len(b) {
			return append(dst, a[k:]...)
		}
		dst = append(dst, a[k])
		a, b = a[k+1:], b[k:]
	}
	return dst
}

// matchLen returns the first index at which a and b differ (len(b) when
// b is a prefix of a; len(a) ≥ len(b)), by exponential then binary
// search: with b ⊆ a, a[i] == b[i] holds exactly up to the first extra.
func matchLen(a, b []Item) int {
	if len(b) == 0 || a[0] != b[0] {
		return 0
	}
	lo, step := 0, 1 // a[lo] == b[lo]
	for lo+step < len(b) && a[lo+step] == b[lo+step] {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(b)) // a[hi] != b[hi], or hi == len(b)
	for lo+1 < hi {
		if mid := (lo + hi) / 2; a[mid] == b[mid] {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// ApplyDelta reconstructs base ∪ items, the inverse of AppendDelta: for
// any base ⊆ s, ApplyDelta(base, s \ base) == s. items arrive off the
// wire, in any order. The result keeps base's anchor, so a chain of
// deltas over an anchored set costs O(window + delta) per link.
func ApplyDelta(base Set, items []Item) Set {
	w := Set{items: sortedUnique(items)}.windowBeyond(base.base)
	if len(w) == 0 {
		return base
	}
	out, dig := unionWindows(base.items, w, base.dig)
	return Set{items: out, dig: dig, base: base.base}
}

// String renders "{p0:a, p1:b}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Each(func(it Item) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(it.String())
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Authors returns the distinct item authors in ascending order.
func (s Set) Authors() []ident.ProcessID {
	// Not an ident.Set: authors are wire fields, and a bitset would size
	// itself to a forged one.
	var out []ident.ProcessID
	s.Each(func(it Item) bool {
		out = append(out, it.Author)
		return true
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// UnionAll folds Union over the given sets.
func UnionAll(sets ...Set) Set {
	out := Empty()
	for _, s := range sets {
		out = out.Union(s)
	}
	return out
}

package sig

import (
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"bgla/internal/ident"
)

// Request is one signature-verification work item: did Signer sign
// Data with Sig?
type Request struct {
	Signer ident.ProcessID
	Data   []byte
	Sig    []byte
}

// BatchVerifier is implemented by keychains that can amortize
// verification work across a batch of requests. Results are per-item:
// a forged signature yields false at its own index without poisoning
// the valid requests around it.
type BatchVerifier interface {
	VerifyBatch(reqs []Request) []bool
}

// VerifyBatch verifies every request against kc, delegating to the
// keychain's batched implementation when it has one and falling back
// to one-at-a-time Verify calls otherwise. The returned slice is
// parallel to reqs.
func VerifyBatch(kc Keychain, reqs []Request) []bool {
	if bv, ok := kc.(BatchVerifier); ok {
		return bv.VerifyBatch(reqs)
	}
	out := make([]bool, len(reqs))
	for i, r := range reqs {
		out[i] = kc.Verify(r.Signer, r.Data, r.Sig)
	}
	return out
}

// maxCachedSigLen bounds the signature bytes a cache key can embed
// inline (Ed25519 signatures are 64 bytes, sim tags 16); longer
// signatures bypass the cache rather than growing the key type.
const maxCachedSigLen = 64

// cacheKey identifies one (signer, message, signature) triple in O(1)
// space: the message is represented by its SHA-256 digest, the
// signature inline (they are already ≤ 64 bytes). Comparable, so it
// keys a plain map with no per-entry allocations.
type cacheKey struct {
	signer ident.ProcessID
	data   [sha256.Size]byte
	sigLen uint8
	sig    [maxCachedSigLen]byte
}

// Cache wraps a Keychain with a digest-keyed verified-signature cache:
// a (signer, message, signature) triple is verified at most once, so
// re-delivered frames — duplicate certificates, rebroadcast acks,
// Byzantine replays — cost a hash instead of a curve operation.
// Verdicts of *both* polarities are cached (a replayed forgery is as
// cheap as a replayed valid signature), and the table is bounded by a
// two-generation sweep: when the young generation fills, it becomes
// the old one and lookups still see it until it is overwritten a full
// generation later. All methods are safe for concurrent use;
// verification of cache misses runs outside the table lock.
type Cache struct {
	inner Keychain
	cap   int // per-generation entry bound

	mu    sync.Mutex
	young map[cacheKey]bool
	old   map[cacheKey]bool

	hits, misses atomic.Uint64
}

// DefaultCacheSize is the per-generation bound used by NewCache when
// size is 0 — 2×16384 entries ≈ 3.5 MiB at steady state.
const DefaultCacheSize = 1 << 14

// NewCache wraps inner with a verified-signature cache of the given
// per-generation size (0 = DefaultCacheSize). If inner is already a
// *Cache it is returned as-is — double wrapping only adds latency.
// The young generation is allocated at full size on purpose: growing it
// on demand measured slower end to end (bench/ sharded-scan, 2 cores:
// setup_s +25 %, update_p95_ms +20 %, 4 of 4 pairs).
func NewCache(inner Keychain, size int) *Cache {
	if c, ok := inner.(*Cache); ok {
		return c
	}
	if size <= 0 {
		size = DefaultCacheSize
	}
	return &Cache{inner: inner, cap: size, young: make(map[cacheKey]bool, size)}
}

// SignerFor delegates to the wrapped keychain.
func (c *Cache) SignerFor(p ident.ProcessID) Signer { return c.inner.SignerFor(p) }

// Stats returns the cumulative cache hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

func makeKey(p ident.ProcessID, data, sigBytes []byte) (cacheKey, bool) {
	if len(sigBytes) > maxCachedSigLen {
		return cacheKey{}, false
	}
	k := cacheKey{signer: p, data: sha256.Sum256(data), sigLen: uint8(len(sigBytes))}
	copy(k.sig[:], sigBytes)
	return k, true
}

// lookup checks both generations; found entries in the old generation
// are promoted so survivors outlive sweeps.
func (c *Cache) lookup(k cacheKey) (verdict, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.young[k]; ok {
		return v, true
	}
	if v, ok := c.old[k]; ok {
		c.store(k, v)
		return v, true
	}
	return false, false
}

// store inserts under c.mu, sweeping generations at the bound.
func (c *Cache) store(k cacheKey, v bool) {
	if len(c.young) >= c.cap {
		c.old = c.young
		c.young = make(map[cacheKey]bool, c.cap)
	}
	c.young[k] = v
}

// Verify implements Keychain with at-most-once verification per
// distinct (signer, message, signature) triple.
func (c *Cache) Verify(p ident.ProcessID, data, sigBytes []byte) bool {
	k, cacheable := makeKey(p, data, sigBytes)
	if !cacheable {
		return c.inner.Verify(p, data, sigBytes)
	}
	if v, ok := c.lookup(k); ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v := c.inner.Verify(p, data, sigBytes)
	c.mu.Lock()
	c.store(k, v)
	c.mu.Unlock()
	return v
}

// VerifyBatch implements BatchVerifier: cached verdicts are answered
// from the table, identical triples within the batch are verified only
// once, and the remaining misses go to the wrapped keychain's own
// batched implementation when it has one. Per-item isolation holds
// throughout — each index gets its own verdict.
func (c *Cache) VerifyBatch(reqs []Request) []bool {
	out := make([]bool, len(reqs))
	keys := make([]cacheKey, len(reqs))
	cacheable := make([]bool, len(reqs))
	var missIdx []int
	var dupOf [][2]int // {later index, first index} of intra-batch repeats
	firstAt := make(map[cacheKey]int, len(reqs))
	for i, r := range reqs {
		k, ok := makeKey(r.Signer, r.Data, r.Sig)
		keys[i], cacheable[i] = k, ok
		if !ok {
			missIdx = append(missIdx, i)
			continue
		}
		if v, hit := c.lookup(k); hit {
			c.hits.Add(1)
			out[i] = v
			continue
		}
		if j, dup := firstAt[k]; dup {
			// Same triple earlier in the batch: share its verdict.
			c.hits.Add(1)
			dupOf = append(dupOf, [2]int{i, j})
			continue
		}
		firstAt[k] = i
		c.misses.Add(1)
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		misses := make([]Request, len(missIdx))
		for j, i := range missIdx {
			misses[j] = reqs[i]
		}
		verdicts := VerifyBatch(c.inner, misses)
		c.mu.Lock()
		for j, i := range missIdx {
			out[i] = verdicts[j]
			if cacheable[i] {
				c.store(keys[i], verdicts[j])
			}
		}
		c.mu.Unlock()
	}
	for _, p := range dupOf {
		out[p[0]] = out[p[1]]
	}
	return out
}

// Package cache implements the monotonicity-aware result cache of the
// serving layer: solved regions keyed on (index version, serving path,
// canonical query key), with a neighbor lookup that exploits the two
// invariants the differential harness proves for every solver —
//
//	R(q, k, ε)  ⊆  R(q, k', ε')   whenever k ≤ k' and ε ≤ ε'
//
// (the qualified region grows as the rank requirement relaxes and as the
// regret threshold rises; see docs/SERVING.md for the Lemma 3.5 counting
// argument). A cached region for the same query point at (k', ε') with
// k' ≤ k and ε' ≤ ε is therefore a sound inner bound — every preference it
// contains genuinely qualifies — and Bound hands such a neighbor to the
// anytime tier as a warm-start seed. The special case ε' = 0 is the
// reverse top-k answer, which is how cached ReverseTopK results seed the
// anytime construction of any (k, ε > 0) query on the same point.
//
// Exact hits are byte-identical to a from-scratch solve because the cache
// only ever stores the artifact such a solve produced, keyed by serving
// path (solver name), and the key includes the epoch version — mutation
// invalidation is free: a new epoch simply never matches old keys, and
// Prune discards the dead generation eagerly.
//
// The cache is safe for concurrent use. Stored regions are immutable and
// shared; callers must not mutate them.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"rrq/internal/core"
)

// BoundKind classifies how a cache answer relates to the true region of the
// requested query.
type BoundKind int

const (
	// Exact: the cached region is the answer to the requested query itself.
	Exact BoundKind = iota
	// Inner: the cached region is a subset of the true region (a neighbor
	// with k' ≤ k and ε' ≤ ε).
	Inner
)

func (b BoundKind) String() string {
	switch b {
	case Exact:
		return "exact"
	case Inner:
		return "inner"
	default:
		return "BoundKind(?)"
	}
}

// Answer is one cache response: the stored region, how it bounds the
// requested query (Exact or Inner), and the query the region actually
// answers (equal to the request for Exact).
type Answer struct {
	Region *core.Region
	Kind   BoundKind
	From   core.Query
}

// entry is one stored result. Entries live in the LRU list and in two
// indexes: the exact map (full key) and the per-point bucket used for
// bound lookups.
type entry struct {
	fullKey  string // version | path | Query.Key
	bucket   string // version | Query.PointKey — bound neighbors share it
	q        core.Query
	region   *core.Region
	lruEntry *list.Element
	// inexact marks an entry whose region is a sound subset of — not equal
	// to — its key's true region (an anytime answer stored by PutInner).
	// Inexact entries only ever serve as Inner bounds: a subset of
	// R(k', ε') is still inside R(k, ε) for k' ≤ k, ε' ≤ ε, but it can
	// never answer an Exact lookup.
	inexact bool
	// measure memoizes the seeded volume estimate used as the tightness
	// proxy when two bound candidates are incomparable under the (k, ε)
	// partial order. Guarded by Cache.mu.
	measure  float64
	measured bool
}

// proxySeed and proxySamples parameterize the tightness-proxy estimate.
// The seed is fixed so repeated lookups agree; 256 samples are enough to
// order regions whose volumes differ meaningfully, and ties fall back to a
// fixed rule (see betterInner).
const (
	proxySeed    = 0x5EED
	proxySamples = 256
)

// measureLocked returns the entry's memoized seeded volume. Callers hold
// c.mu.
func (e *entry) measureLocked() float64 {
	if !e.measured {
		e.measure = e.region.MeasureWithSeed(proxySeed, proxySamples)
		e.measured = true
	}
	return e.measure
}

// Cache is a bounded LRU result cache. The zero value is not usable; call
// New.
type Cache struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List                     // front = most recent; values are *entry
	exact   map[string]*entry              // fullKey → entry
	buckets map[string]map[*entry]struct{} // bucket → member set

	hits, misses, boundHits atomic.Int64
}

// New returns an empty cache holding at most capacity entries (capacity
// ≤ 0 is treated as 1).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		lru:     list.New(),
		exact:   make(map[string]*entry),
		buckets: make(map[string]map[*entry]struct{}),
	}
}

// versionKey prefixes a key with the epoch version so entries of different
// epochs never collide.
func versionKey(version uint64, rest string) string {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(version >> (8 * i))
	}
	return string(b[:]) + rest
}

// fullKey is the exact-hit key: version, serving path and canonical query
// key. The path (the solver name) is part of the key because different
// exact solvers return the same region as a set but under different convex
// decompositions — byte-identical serving requires matching the artifact's
// producer.
func fullKey(version uint64, path string, q core.Query) string {
	return versionKey(version, path+"\x00"+q.Key())
}

// Get returns the exact cached region for (version, path, q), or ok =
// false. A hit refreshes the entry's recency.
func (c *Cache) Get(version uint64, path string, q core.Query) (*core.Region, bool) {
	key := fullKey(version, path, q)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.exact[key]
	if !ok || e.inexact {
		// An inexact entry bounds its key's answer without equalling it, so
		// it can never satisfy the byte-identical exact-hit contract.
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(e.lruEntry)
	c.hits.Add(1)
	return e.region, true
}

// Put stores the region solved for (version, path, q). Only exact,
// deterministic artifacts belong here: the serving layer must not Put
// approximate (A-PC) or degraded results, since exact lookups assume the
// entry is the true region of its key — store those through PutInner,
// which marks the entry as a sound inner bound.
func (c *Cache) Put(version uint64, path string, q core.Query, region *core.Region) {
	c.put(version, path, q, region, false)
}

// PutInner stores a region that is a sound inner bound of (version, q)'s
// true answer — an anytime A-PC result, whose every partition is qualified
// (Lemma 5.7) but which may under-cover. The entry never answers an exact
// Get (the path keeps it out of the exact solvers' key space) and Bound
// returns it only as an Inner bound; a later anytime solve of the same
// point uses it as a warm start. Storing a better (larger) region under the
// same key replaces the old one, so repeated anytime solves ratchet the
// cached bound upward.
func (c *Cache) PutInner(version uint64, path string, q core.Query, region *core.Region) {
	c.put(version, path, q, region, true)
}

func (c *Cache) put(version uint64, path string, q core.Query, region *core.Region, inexact bool) {
	key := fullKey(version, path, q)
	bucket := versionKey(version, q.PointKey())
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.exact[key]; ok {
		e.region = region
		e.inexact = inexact
		e.measured = false
		c.lru.MoveToFront(e.lruEntry)
		return
	}
	e := &entry{fullKey: key, bucket: bucket, q: q, region: region, inexact: inexact}
	e.lruEntry = c.lru.PushFront(e)
	c.exact[key] = e
	members, ok := c.buckets[bucket]
	if !ok {
		members = make(map[*entry]struct{})
		c.buckets[bucket] = members
	}
	members[e] = struct{}{}
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back().Value.(*entry))
	}
}

// Bound returns the best available inner bound for (version, q) among
// entries cached for the same query point: the tightest neighbor with
// k' ≤ k and ε' ≤ ε. An exact entry matching (k, ε) is returned as an Exact
// answer regardless of its serving path (the smallest cache key among
// several); inexact (anytime) entries are only ever Inner. Nil when no
// applicable neighbor is cached; a returned inner bound counts as a bound
// hit and refreshes the source entry's recency.
//
// "Tightest" is decided by dominance first: among inner candidates, one
// whose (k', ε') dominates another's componentwise can only have the larger
// region, so it wins without measuring anything. The (k, ε) partial order
// admits incomparable candidates, though — e.g. (k=3, ε=0.1) vs
// (k=2, ε=0.2) — for which no a-priori ordering exists (either region can
// be the larger); those ties break on a memoized seeded-measure proxy of
// the stored regions themselves, and equal measures on a fixed rule (see
// betterInner), so the pick never depends on map order. A lexicographic
// (k, then ε) pick alone could prefer a strictly looser bound.
func (c *Cache) Bound(version uint64, q core.Query) *Answer {
	bucket := versionKey(version, q.PointKey())
	c.mu.Lock()
	defer c.mu.Unlock()
	members := c.buckets[bucket]
	var exact *entry
	for e := range members {
		if !e.inexact && e.q.K == q.K && e.q.Eps == q.Eps && (exact == nil || e.fullKey < exact.fullKey) {
			exact = e
		}
	}
	if exact != nil {
		c.lru.MoveToFront(exact.lruEntry)
		c.hits.Add(1)
		return &Answer{Region: exact.region, Kind: Exact, From: exact.q}
	}
	var inner *entry
	for e := range members {
		if e.q.K <= q.K && e.q.Eps <= q.Eps {
			inner = c.betterInner(e, inner)
		}
	}
	if inner == nil {
		return nil
	}
	c.lru.MoveToFront(inner.lruEntry)
	c.boundHits.Add(1)
	return &Answer{Region: inner.region, Kind: Inner, From: inner.q}
}

// betterInner picks the tighter of two inner-bound candidates (best may be
// nil). The order is total, so the pick never depends on the order Bound
// visits its bucket in: the larger stored region by the seeded-measure
// proxy, then the larger k, the larger ε, and the smaller cache key. When
// both entries are exact and their (k, ε) differ, dominance decides without
// measuring — it agrees with that order, because a dominating neighbor's
// region is a superset by the monotonicity invariant and so measures at
// least as large on the shared samples. Inexact entries always compare by
// measure: their region can be far smaller than their (k, ε) advertises, so
// dominance says nothing about them.
func (c *Cache) betterInner(e, best *entry) *entry {
	if best == nil {
		return e
	}
	ek, bk := e.q, best.q
	if !e.inexact && !best.inexact && (ek.K != bk.K || ek.Eps != bk.Eps) {
		if ek.K >= bk.K && ek.Eps >= bk.Eps {
			return e
		}
		if bk.K >= ek.K && bk.Eps >= ek.Eps {
			return best
		}
	}
	if me, mb := e.measureLocked(), best.measureLocked(); me != mb {
		return pick(me > mb, e, best)
	}
	if ek.K != bk.K {
		return pick(ek.K > bk.K, e, best)
	}
	if ek.Eps != bk.Eps {
		return pick(ek.Eps > bk.Eps, e, best)
	}
	return pick(e.fullKey < best.fullKey, e, best)
}

func pick(first bool, a, b *entry) *entry {
	if first {
		return a
	}
	return b
}

// Prune discards every entry not belonging to version — called after a
// mutation publishes a new epoch, so the dead generation does not occupy
// capacity until it ages out. Invalidation correctness does not depend on
// it (old versions can never match new keys); it only reclaims space.
func (c *Cache) Prune(version uint64) {
	prefix := versionKey(version, "")
	c.mu.Lock()
	defer c.mu.Unlock()
	for e := c.lru.Front(); e != nil; {
		next := e.Next()
		ent := e.Value.(*entry)
		if ent.fullKey[:8] != prefix {
			c.removeLocked(ent)
		}
		e = next
	}
}

// removeLocked unlinks one entry from the LRU list and both indexes.
func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.lruEntry)
	delete(c.exact, e.fullKey)
	if members, ok := c.buckets[e.bucket]; ok {
		delete(members, e)
		if len(members) == 0 {
			delete(c.buckets, e.bucket)
		}
	}
}

// Stats is a point-in-time view of the cache's traffic and occupancy.
type Stats struct {
	// Entries is the current number of cached results, Capacity the bound.
	Entries, Capacity int
	// Hits and Misses count exact lookups; BoundHits counts inner bounds
	// returned by Bound (anytime warm-start seeds).
	Hits, Misses, BoundHits int64
}

// Stats returns the cache's current statistics.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	n := c.lru.Len()
	c.mu.Unlock()
	return Stats{
		Entries:   n,
		Capacity:  c.cap,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		BoundHits: c.boundHits.Load(),
	}
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

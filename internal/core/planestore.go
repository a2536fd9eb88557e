package core

import (
	"encoding/binary"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// bandSet is the skyband state of one dataset, shared by every Prepared
// over it: per-point dominator counts and the k-bands they select. A point
// is in the k-skyband iff its count is < k, so one count vector serves every
// rank it is exact for, and selecting by that predicate in input order
// reproduces skyband.Select(pts, skyband.KSkyband(pts, k)) exactly.
type bandSet struct {
	all *band // the whole dataset: rank 0, and every rank when on is false
	on  bool  // the k-skyband prefilter is enabled
	top int   // with exact counts, max count + 1: every rank ≥ top is one band

	mu      sync.Mutex
	counts  []int         // dominator counts, exact below countsK
	countsK int           // counts answer every rank ≤ countsK
	memo    map[int]*band // at most maxBandViews ranks; nil: slot reserved, unbuilt
}

// maxBandViews bounds the memoized k-bands of one bandSet. A band of a rank
// past the cap is built for its one solve and dropped.
const maxBandViews = 64

// band is one memoized k-band: its points in input order and their
// dominator counts (exact below the rank, which is all narrowing needs).
type band struct {
	pts []vec.Vec
	cnt []int
}

func newBandSet(pts []vec.Vec, on bool) *bandSet {
	return &bandSet{all: &band{pts: pts}, on: on}
}

// rank maps a query's k to the band rank its solver runs on: k itself with
// the prefilter on — or top, when exact counts show every deeper rank
// selects the same band — and 0 (the whole dataset) otherwise.
func (s *bandSet) rank(k int) int {
	if !s.on || k < 1 {
		return 0
	}
	if s.top > 0 {
		return min(k, s.top)
	}
	return k
}

// get returns the band of rank r (see rank), memoized while fewer than
// maxBandViews ranks are (or r's slot is reserved). Without exact counts
// the capped counts of skyband.KSkybandCounts are computed at r and only
// recomputed when a deeper rank arrives; counts at r′ ≥ r answer r.
func (s *bandSet) get(r int) *band {
	if r == 0 {
		return s.all
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, reserved := s.memo[r]
	if b != nil {
		return b
	}
	if s.countsK < r {
		s.counts = skyband.KSkybandCounts(s.all.pts, r)
		s.countsK = r
	}
	m := 0
	for _, c := range s.counts {
		if c < r {
			m++
		}
	}
	b = &band{pts: make([]vec.Vec, 0, m), cnt: make([]int, 0, m)}
	for i, c := range s.counts {
		if c < r {
			b.pts = append(b.pts, s.all.pts[i])
			b.cnt = append(b.cnt, c)
		}
	}
	if reserved || s.claim() {
		s.memo[r] = b
	}
	return b
}

// reserve reports whether rank r's band is, or will be, memoized — claiming
// a memo slot for it when one is free. A plane group keeps its band alive,
// so groups are installed only at reserved ranks.
func (s *bandSet) reserve(r int) bool {
	if r == 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.memo[r]; ok {
		return true
	}
	if !s.claim() {
		return false
	}
	s.memo[r] = nil
	return true
}

// claim reports whether the memo has room for one more rank. Callers hold
// s.mu.
func (s *bandSet) claim() bool {
	if s.memo == nil {
		s.memo = make(map[int]*band)
	}
	return len(s.memo) < maxBandViews
}

// maxPlaneGroups bounds a plane store's groups, which are never evicted: a
// key that would exceed it builds its planes per solve (the region is
// unaffected). The seen table spends the slots on keys that repeat.
const maxPlaneGroups = 1024

// seenBits sizes a plane store's seen table: 1<<seenBits hashes of keys
// looked up without a group.
const seenBits = 12

// PlaneCounters tallies a plane store's traffic. A hit is a plane set served
// without classification; a miss classified planes — building or rebuilding
// a group, or a direct build for a key's first sighting or past the store's
// cap.
type PlaneCounters struct {
	Hits, Misses atomic.Int64
}

// planeStore holds classified plane sets keyed by (query point bytes, ε
// bits): classifying h_{q,p} depends only on q, ε and p, and k only selects
// which band points take part, so one group classified over its widest band
// answers every smaller k by filtering. A group pays only when its key comes
// back, so a key's first lookup only records it in the seen table (TinyLFU's
// doorkeeper) and classifies into the solve's arena; the key's next lookup
// installs its group. An index snapshot keeps one store for its lifetime; a
// plain-dataset batch gets an ephemeral one. Safe for concurrent use; a
// served set's normals are the group's and read-only, its headers the
// caller's.
type planeStore struct {
	bands *bandSet
	tally *PlaneCounters // nil: uncounted (batch-scoped)

	mu     sync.Mutex
	groups map[string]*planeGroup
	seen   *[1 << seenBits]uint64 // FNV-1a hashes of keys, slot by top bits; nil until the first lookup
}

func newPlaneStore(bands *bandSet, tally *PlaneCounters) *planeStore {
	return &planeStore{bands: bands, tally: tally, groups: make(map[string]*planeGroup)}
}

// planeGroup is the classification of one (point, ε) over the band of rank
// kmax: one planeKind per band point and the unit normals of the crossing
// planes — a band of n points with c crossings keeps n + 8·d·c bytes. It
// keeps no headers: narrow rebuilds them from the normals into each
// lookup's arena, which costs a fraction of classifying the band again. It
// is built once, by the first lookup that finds it unbuilt, and immutable
// afterwards; the band itself is the Prepared's memoized one, not a copy.
type planeGroup struct {
	kmax int

	mu      sync.Mutex
	ready   atomic.Bool
	band    *band
	kinds   []planeKind // per band point
	normals []float64   // unit normals of the planeCross points, stride d, in band order
}

// groupKey appends the store key of q — the bytes of its point, then of ε —
// to dst.
func groupKey(dst []byte, q Query) []byte {
	for _, x := range q.Q {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.Eps))
}

// planes returns q's classified plane set over pts, the band its rank
// selects. A nil store builds the set directly into a, and so does a store
// for a key it has no group for and is not admitting (see group). A store
// serves the rest from q's group, rebuilt at q's rank first when it was
// classified below it, through narrow — at the group's own rank as below
// it: the headers are built into a, the normals are the group's. Counted
// stores report each lookup to their PlaneCounters and, when reg is
// non-nil, to its index.planes.hit / index.planes.miss counters. Every
// classification pass, stored or not, adds the points it classified to
// reg's core.planes.classified counter: the work a store exists to share.
func (s *planeStore) planes(pts []vec.Vec, q Query, a *Arena, reg *obs.Registry) PlaneSet {
	if s == nil {
		reg.Counter("core.planes.classified").Add(int64(len(pts)))
		return buildPlanes(pts, q, a)
	}
	r := s.bands.rank(q.K)
	g := s.group(q, r, false)
	if g == nil {
		s.count(false, reg)
		reg.Counter("core.planes.classified").Add(int64(len(pts)))
		return buildPlanes(pts, q, a)
	}
	hit := true
	if !g.ready.Load() {
		g.mu.Lock()
		if !g.ready.Load() {
			b := s.bands.get(g.kmax)
			reg.Counter("core.planes.classified").Add(int64(len(b.pts)))
			g.build(b, q)
			g.ready.Store(true)
			hit = false
		}
		g.mu.Unlock()
	}
	s.count(hit, reg)
	return narrow(g.kinds, g.normals, g.band.cnt, r, q.Q.Dim(), a)
}

// group returns q's group if it covers rank r, else installs a fresh
// (unbuilt) one at r — for a key without a group only when shared is set (a
// batch reserving a key several of its queries share) or the seen table
// holds the key. nil when the key has no group and is not admitted or the
// store is full, or when r's band is past the memo cap.
func (s *planeStore) group(q Query, r int, shared bool) *planeGroup {
	var buf [128]byte
	key := groupKey(buf[:0], q)
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[string(key)]
	if g != nil && g.kmax >= r {
		return g
	}
	if g == nil && (len(s.groups) >= maxPlaneGroups || !shared && !s.seenBefore(key)) || !s.bands.reserve(r) {
		return nil
	}
	g = &planeGroup{kmax: r}
	s.groups[string(key)] = g
	return g
}

// seenBefore reports whether the seen table holds key, recording it
// otherwise. The table is direct-mapped: the top bits of the key's FNV-1a
// hash pick its slot, which keeps the whole hash and forgets the key it
// replaces, so a repeat is missed only after another key took its slot.
// Callers hold s.mu.
func (s *planeStore) seenBefore(key []byte) bool {
	if s.seen == nil {
		s.seen = new([1 << seenBits]uint64)
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211 // FNV-1a prime
	}
	slot := &s.seen[h>>(64-seenBits)]
	h |= 1 // an empty slot holds 0
	if *slot == h {
		return true
	}
	*slot = h
	return false
}

func (s *planeStore) count(hit bool, reg *obs.Registry) {
	if s.tally == nil {
		return
	}
	name := "index.planes.miss"
	if hit {
		s.tally.Hits.Add(1)
		name = "index.planes.hit"
	} else {
		s.tally.Misses.Add(1)
	}
	reg.Counter(name).Inc()
}

// build classifies every point of b with classifyPlanes, keeping the
// per-point kinds and the crossing planes' unit normals in exact-size heap
// storage the group owns.
func (g *planeGroup) build(b *band, q Query) {
	g.kinds, g.normals = classifyPlanes(b.pts, q, &Arena{})
	g.band = b
}

// clusterOrder sorts the batch's solve order so queries drawing on the same
// plane group run adjacently — same point, then ε, then ascending k —
// keeping the group's classification and the derived sets cache-warm on
// whichever worker picks the next index. Ties keep submission order.
// Results are still delivered in input order; only the dispatch order
// changes.
func clusterOrder(order []int, queries []Query, keys []string) {
	if len(order) < 2 {
		return
	}
	sort.SliceStable(order, func(a, b int) bool {
		qa, qb := queries[order[a]], queries[order[b]]
		if keys[order[a]] != keys[order[b]] {
			return keys[order[a]] < keys[order[b]]
		}
		ea, eb := math.Float64bits(qa.Eps), math.Float64bits(qb.Eps)
		if ea != eb {
			return ea < eb
		}
		return qa.K < qb.K
	})
}

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

// maxPlaneGroups bounds a batch's plane groups: a shared key past it
// builds its planes per solve (the region is unaffected).
const maxPlaneGroups = 1024

// PlaneCounters tallies an index's plane traffic. A hit is a plane set
// served without classification; a miss classified planes — a served
// solve's direct build, a batch building one of its groups, or a batch
// query whose key no other query of the batch shares.
type PlaneCounters struct {
	Hits, Misses atomic.Int64
}

// count records one lookup in c and, when reg is non-nil, in its
// index.planes.hit / index.planes.miss counters. A nil c counts nothing.
func (c *PlaneCounters) count(hit bool, reg *obs.Registry) {
	if c == nil {
		return
	}
	name := "index.planes.miss"
	if hit {
		c.Hits.Add(1)
		name = "index.planes.hit"
	} else {
		c.Misses.Add(1)
	}
	reg.Counter(name).Inc()
}

// planeStore holds one batch's classified plane sets keyed by (query point
// bytes, ε bits): classifying h_{q,p} depends only on q, ε and p, and k only
// selects which band points take part, so one group classified over its
// widest band answers every smaller k by filtering. The batch reserves
// every group before its first solve and drops the store with its last, so
// the groups map is read-only while solves run; each group is classified by
// the first lookup that finds it unbuilt. A served set's normals are the
// group's and read-only, its headers the caller's.
type planeStore struct {
	bands  *bandSet
	groups map[string]*planeGroup
}

func newPlaneStore(bands *bandSet) *planeStore {
	return &planeStore{bands: bands, groups: make(map[string]*planeGroup)}
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
// selects, and whether it was served without classification. A nil store
// builds the set directly into a, and so does a store without a group for
// q's key. A store serves the rest from q's group through narrow — at the
// group's own rank as below it: the headers are built into a, the normals
// are the group's. Every classification pass, stored or not, adds the
// points it classified to reg's core.planes.classified counter: the work a
// store exists to share.
func (s *planeStore) planes(pts []vec.Vec, q Query, a *Arena, reg *obs.Registry) (PlaneSet, bool) {
	var g *planeGroup
	if s != nil {
		var buf [128]byte
		g = s.groups[string(groupKey(buf[:0], q))]
	}
	if g == nil {
		reg.Counter("core.planes.classified").Add(int64(len(pts)))
		return buildPlanes(pts, q, a), false
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
	return narrow(g.kinds, g.normals, g.band.cnt, s.bands.rank(q.K), q.Q.Dim(), a), hit
}

// reserve installs an unbuilt group for q's key at rank r, unless the store
// is full or r's band is past the memo cap. The batch reserves before any
// of its solves runs, and each key once, at the largest rank its queries
// ask for.
func (s *planeStore) reserve(q Query, r int) {
	if len(s.groups) < maxPlaneGroups && s.bands.reserve(r) {
		s.groups[string(groupKey(nil, q))] = &planeGroup{kmax: r}
	}
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

package core

// Tests for cross-query sharing: the shared skyband bands, the per-(point, ε)
// plane store and duplicate collapse must leave every query's answer
// byte-identical to an independent solve, across worker counts, solvers and
// prefilter settings.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// mixedBatch builds a batch that exercises every sharing tier: a few
// distinct query points, several ε values and ranks per point (so plane
// groups serve nested k), and guaranteed exact duplicates (dedup).
func mixedBatch(rng *rand.Rand, pts []vec.Vec, n int) []Query {
	qpts := make([]vec.Vec, 4)
	for i := range qpts {
		p := pts[rng.Intn(len(pts))].Clone()
		for j := range p {
			p[j] = math.Min(1, math.Max(0.01, p[j]+(rng.Float64()-0.5)*0.2))
		}
		qpts[i] = p
	}
	epss := []float64{0, 0.05, 0.12}
	out := make([]Query, 0, n+2)
	for i := 0; i < n; i++ {
		out = append(out, Query{
			Q:   qpts[rng.Intn(len(qpts))],
			K:   1 + rng.Intn(5),
			Eps: epss[rng.Intn(len(epss))],
		})
	}
	// Exact duplicates of the first and a middle query.
	out = append(out, out[0], out[n/2])
	return out
}

func regionBytes(t *testing.T, r *Region) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal region: %v", err)
	}
	return b
}

// TestBatchSharedByteIdentical is the sharing contract: for every solver,
// dimension, prefilter setting and worker count, a batch produces regions
// whose JSON encoding is byte-for-byte equal to independent per-query
// solves on the same Prepared.
func TestBatchSharedByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		d    int
		s    Solver
	}{
		{"sweeping-2d", 2, SweepingSolver{}},
		{"ept-3d", 3, EPTSolver{}},
		{"ept-4d", 4, EPTSolver{}},
	}
	for _, tc := range cases {
		for _, prefilter := range []bool{false, true} {
			name := tc.name + "/prefilter=off"
			if prefilter {
				name = tc.name + "/prefilter=on"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(tc.d)*1009 + 3))
				pts, _ := randomInstance(rng, 120, tc.d)
				queries := mixedBatch(rng, pts, 14)
				prep, err := Prepare(pts, tc.d, prefilter)
				if err != nil {
					t.Fatal(err)
				}
				want := make([][]byte, len(queries))
				for i, q := range queries {
					r, _, err := tc.s.Solve(context.Background(), prep, q)
					if err != nil {
						t.Fatalf("independent solve %d: %v", i, err)
					}
					want[i] = regionBytes(t, r)
				}
				for _, w := range []int{1, 2, 4} {
					outs := SolveBatchPolicy(context.Background(), SolvePolicy{Solver: tc.s}, prep, queries, w)
					for i, o := range outs {
						if o.Err != nil {
							t.Fatalf("workers=%d query %d: %v", w, i, o.Err)
						}
						got := regionBytes(t, o.Region)
						if !bytes.Equal(got, want[i]) {
							t.Fatalf("workers=%d query %d: shared region diverged\n got %s\nwant %s",
								w, i, got, want[i])
						}
					}
				}
			})
		}
	}
}

// TestBatchDedupCollapse pins the duplicate-collapse semantics: duplicate
// slots share the representative's region pointer (regions are immutable),
// copy its stats, report zero elapsed time and carry the Dedup mark, while
// the representative itself does not.
func TestBatchDedupCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts, q := randomInstance(rng, 80, 3)
	q2 := q
	q2.K = q.K%5 + 1
	q2.Q = vec.RandSimplex(rng, 3).Scale(0.9)
	queries := []Query{q, q, q, q2, q}
	prep, err := Prepare(pts, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 3} {
		outs := SolveBatchPolicy(context.Background(), SolvePolicy{Solver: EPTSolver{}}, prep, queries, w)
		rep := outs[0]
		if rep.Dedup {
			t.Fatalf("workers=%d: representative slot marked Dedup", w)
		}
		if rep.Err != nil {
			t.Fatalf("workers=%d: representative failed: %v", w, rep.Err)
		}
		if outs[3].Dedup {
			t.Fatalf("workers=%d: distinct query marked Dedup", w)
		}
		for _, i := range []int{1, 2, 4} {
			o := outs[i]
			if !o.Dedup {
				t.Fatalf("workers=%d slot %d: duplicate not marked Dedup", w, i)
			}
			if o.Region != rep.Region {
				t.Fatalf("workers=%d slot %d: duplicate did not share the representative's region", w, i)
			}
			if o.Stats != rep.Stats {
				t.Fatalf("workers=%d slot %d: stats not copied from representative", w, i)
			}
			if o.Elapsed != 0 {
				t.Fatalf("workers=%d slot %d: duplicate reports nonzero elapsed %v", w, i, o.Elapsed)
			}
		}
	}
}

// TestClusterOrderProperties checks the dispatch clustering: the order stays
// a permutation, the result is deterministic, and all queries of one
// (point, ε) group end up adjacent with ascending k inside the group.
func TestClusterOrderProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := randomInstance(rng, 40, 3)
	queries := mixedBatch(rng, pts, 20)
	keys := make([]string, len(queries))
	for i := range keys {
		keys[i] = queries[i].PointKey()
	}
	order := make([]int, len(queries))
	for i := range order {
		order[i] = i
	}
	clusterOrder(order, queries, keys)

	seen := make(map[int]bool, len(order))
	for _, i := range order {
		if i < 0 || i >= len(queries) || seen[i] {
			t.Fatalf("clusterOrder is not a permutation: %v", order)
		}
		seen[i] = true
	}

	again := make([]int, len(queries))
	for i := range again {
		again[i] = i
	}
	clusterOrder(again, queries, keys)
	for i := range order {
		if order[i] != again[i] {
			t.Fatalf("clusterOrder not deterministic: %v vs %v", order, again)
		}
	}

	type gk struct {
		p string
		e uint64
	}
	last := make(map[gk]int)
	for pos, i := range order {
		key := gk{queries[i].PointKey(), math.Float64bits(queries[i].Eps)}
		if prev, ok := last[key]; ok {
			if prev != pos-1 {
				t.Fatalf("group %v not contiguous: positions %d and %d", key, prev, pos)
			}
			if queries[order[prev]].K > queries[i].K {
				t.Fatalf("group %v not ascending in k at position %d", key, pos)
			}
		}
		last[key] = pos
	}
}

// TestPreparedBandsMatchKSkyband verifies the one band mechanism: bands
// selected from capped counts (plain Prepare, asked deepest-first and then
// in mixed order) and from exact counts (PrepareCounted) equal
// skyband.Select(pts, skyband.KSkyband(pts, k)) in membership and order.
func TestPreparedBandsMatchKSkyband(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := randomInstance(rng, 150, 3)
	// Duplicate some points so ties and repeated coordinates are exercised.
	pts = append(pts, pts[0].Clone(), pts[1].Clone(), pts[2].Clone())
	plain, err := Prepare(pts, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	counted := PrepareCounted(pts, 3, skyband.DominatorCounts(pts), nil)
	for _, k := range []int{6, 1, 3, 8, 2, 7, 4, 5} {
		want := skyband.Select(pts, skyband.KSkyband(pts, k))
		for name, prep := range map[string]*Prepared{"plain": plain, "counted": counted} {
			got := prep.PointsFor(k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: band size %d, want %d", name, k, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i], 0) {
					t.Fatalf("%s k=%d: band[%d] = %v, want %v", name, k, i, got[i], want[i])
				}
			}
		}
	}
	if plain.BandViews() != 8 || counted.BandViews() != 8 {
		t.Fatalf("band views plain=%d counted=%d, want 8 each", plain.BandViews(), counted.BandViews())
	}
}

// TestCappedCountsCache pins the count cache behind plain Prepare's bands:
// counts computed at a deeper rank serve shallower bands without
// recomputation (the slice is reused), and a deeper request replaces them.
func TestCappedCountsCache(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, _ := randomInstance(rng, 60, 3)
	prep, err := Prepare(pts, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	prep.PointsFor(4)
	c4 := prep.bands.counts
	prep.PointsFor(2)
	if c2 := prep.bands.counts; &c4[0] != &c2[0] {
		t.Error("shallower rank recomputed cached counts")
	}
	prep.PointsFor(6)
	if prep.bands.countsK != 6 {
		t.Fatalf("counts rank %d after k=6, want 6", prep.bands.countsK)
	}
	for i, c := range prep.bands.counts {
		if c > 6 {
			t.Fatalf("count[%d] = %d exceeds cap 6", i, c)
		}
	}
}

// TestBatchPlaneStoreLifetimes pins who owns the plane store: a batch over a
// plain Prepare runs on an ephemeral store and leaves the Prepared
// store-less (plain solves build planes per call) while sharing its bands;
// a batch over a counted Prepared fills that Prepared's own store, one
// group per (point, ε) that two distinct queries of the batch share. A key
// only one query asks for is looked up like a served solve: it gets a group
// when it comes back.
func TestBatchPlaneStoreLifetimes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts, q := randomInstance(rng, 30, 3)
	q2 := q
	q2.K = q.K + 2
	q3 := q
	q3.Eps = q.Eps / 2
	queries := []Query{q, q2, q3, q}
	pol := SolvePolicy{Solver: EPTSolver{}}

	plain, err := Prepare(pts, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range SolveBatchPolicy(context.Background(), pol, plain, queries, 2) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if plain.store != nil || plain.PlaneGroups() != 0 {
		t.Error("a batch left a plane store on a plain Prepared")
	}
	if plain.BandViews() == 0 {
		t.Error("the batch's bands were not memoized on the Prepared")
	}

	counted := PrepareCounted(pts, 3, skyband.DominatorCounts(pts), nil)
	for _, o := range SolveBatchPolicy(context.Background(), pol, counted, queries, 2) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if got := counted.PlaneGroups(); got != 1 {
		t.Errorf("counted Prepared holds %d plane groups after the batch, want 1", got)
	}
	if _, _, err := pol.Solver.Solve(context.Background(), counted, q3); err != nil {
		t.Fatal(err)
	}
	if got := counted.PlaneGroups(); got != 2 {
		t.Errorf("counted Prepared holds %d plane groups after the batch's singleton came back, want 2", got)
	}
}

// planeSetDiff describes how got differs from want — base count, crossing
// count, or a crossing plane's whole header (ID, normal, tangent norm and
// mean offset, bit for bit) — or returns "" when they are equal.
func planeSetDiff(got, want PlaneSet) string {
	if got.Base != want.Base || len(got.Crossing) != len(want.Crossing) {
		return fmt.Sprintf("base=%d planes=%d, want base=%d planes=%d", got.Base, len(got.Crossing), want.Base, len(want.Crossing))
	}
	for i, h := range want.Crossing {
		if g := got.Crossing[i]; !reflect.DeepEqual(g, h) {
			return fmt.Sprintf("plane %d = %#v, want %#v", i, g, h)
		}
	}
	return ""
}

// Every lookup a plane group answers goes through the one narrowing walk,
// which rebuilds the headers from the group's unit normals. Once a group is
// built at kmax = 8, the set served for every k from 1 to 8 equals
// buildPlanes over that k-band, header for header and bit for bit — at
// k = kmax, where the walk keeps the whole band, as below it. A
// prefilter-off Prepared runs every k at rank 0, over a band without
// counts, so its one group serves every k the whole dataset.
func TestPlaneGroupServesEveryRank(t *testing.T) {
	const kmax = 8
	rng := rand.New(rand.NewSource(12))
	pts, q := randomInstance(rng, 300, 3)
	plain, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	tally := &PlaneCounters{}
	preps := []struct {
		name string
		prep *Prepared
		rank int // the group's rank
	}{
		{"counted", PrepareCounted(pts, 3, skyband.DominatorCounts(pts), tally), kmax},
		{"prefilter-off", &Prepared{dim: 3, bands: plain.bands, store: newPlaneStore(plain.bands, tally)}, 0},
	}
	for _, tc := range preps {
		tally.Hits.Store(0)
		tally.Misses.Store(0)
		wide := q
		wide.K = kmax
		// The key's first lookup only records it; the second builds its
		// group.
		for range 2 {
			tc.prep.planes(wide, &Arena{}, nil)
		}
		if g := tc.prep.store.groups[string(groupKey(nil, q))]; g == nil || g.kmax != tc.rank {
			t.Fatalf("%s: no plane group at rank %d after two lookups", tc.name, tc.rank)
		}
		sizes := map[int]bool{}
		for k := 1; k <= kmax; k++ {
			qk := q
			qk.K = k
			want := buildPlanes(tc.prep.PointsFor(k), qk, &Arena{})
			if len(want.Crossing) == 0 {
				t.Fatalf("%s: k=%d has no crossing planes; test is vacuous", tc.name, k)
			}
			sizes[len(want.Crossing)] = true
			if diff := planeSetDiff(tc.prep.planes(qk, &Arena{}, nil), want); diff != "" {
				t.Fatalf("%s: k=%d: served %s", tc.name, k, diff)
			}
		}
		if tc.rank > 0 && len(sizes) < 3 {
			t.Fatalf("%s: only %d distinct band sizes over k = 1..%d; the narrowing is untested", tc.name, len(sizes), kmax)
		}
		if h, m := tally.Hits.Load(), tally.Misses.Load(); h != kmax || m != 2 {
			t.Errorf("%s: hits/misses = %d/%d, want %d/2", tc.name, h, m, kmax)
		}
	}
}

// A snapshot that never sees a (point, ε) twice keeps no plane group:
// 2 × maxPlaneGroups distinct keys each miss once and leave the store
// empty, where installing on first sight would have filled it.
func TestPlaneStoreOneOffKeysKeepNoGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts, q := randomInstance(rng, 40, 3)
	tally := &PlaneCounters{}
	prep := PrepareCounted(pts, 3, skyband.DominatorCounts(pts), tally)
	a := &Arena{}
	const n = 2 * maxPlaneGroups
	for i := 0; i < n; i++ {
		qi := q
		qi.Q = q.Q.Clone()
		qi.Q[0] = 0.01 + 0.98*float64(i)/n
		prep.planes(qi, a, nil)
	}
	if got := prep.PlaneGroups(); got != 0 {
		t.Errorf("%d plane groups after %d one-off keys, want 0", got, n)
	}
	if h, m := tally.Hits.Load(), tally.Misses.Load(); h != 0 || m != n {
		t.Errorf("hits/misses = %d/%d, want 0/%d", h, m, n)
	}
}

// Concurrent first sightings of one key race on the seen table and the
// group install: every lookup returns the set buildPlanes builds, the key
// ends with at most one group, and every lookup is tallied once. Run under
// -race, this is the store's data-race check.
func TestPlaneStoreConcurrentFirstSightings(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts, q := randomInstance(rng, 200, 3)
	dom := skyband.DominatorCounts(pts)
	for trial := 0; trial < 20; trial++ {
		tally := &PlaneCounters{}
		prep := PrepareCounted(pts, 3, dom, tally)
		want := buildPlanes(prep.PointsFor(q.K), q, &Arena{})
		if len(want.Crossing) == 0 {
			t.Fatal("instance produced no crossing planes; test is vacuous")
		}
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if diff := planeSetDiff(prep.planes(q, &Arena{}, nil), want); diff != "" {
					t.Errorf("trial %d: concurrent lookup %s", trial, diff)
				}
			}()
		}
		wg.Wait()
		if got := prep.PlaneGroups(); got > 1 {
			t.Fatalf("trial %d: %d plane groups for one key, want at most 1", trial, got)
		}
		if n := tally.Hits.Load() + tally.Misses.Load(); n != workers {
			t.Fatalf("trial %d: %d lookups tallied, want %d", trial, n, workers)
		}
	}
}

// TestBandMemoBounded pins the band memo's two bounds on a counted
// Prepared: every k above the largest dominator count maps to one band
// (rank max count + 1), and the memo holds at most maxBandViews ranks —
// a rank past the cap builds its band and planes for its one solve. Either
// way each region is byte-identical to E-PT on an unfiltered Prepare of the
// k-skyband.
func TestBandMemoBounded(t *testing.T) {
	pts := dataset.Generate(dataset.Correlated, 200, 3, 5)
	dom := skyband.DominatorCounts(pts)
	top := 1
	for _, c := range dom {
		top = max(top, c+1)
	}
	if top < maxBandViews+10 {
		t.Fatalf("precondition: largest dominator count %d leaves too few distinct ranks", top-1)
	}
	q := Query{Q: dataset.RandQuery(rand.New(rand.NewSource(6)), pts), Eps: 0.1}
	wants := map[int][]byte{}
	check := func(k int, got *Region) {
		t.Helper()
		if wants[k] == nil {
			kq := q
			kq.K = k
			want, _, err := solveOn(context.Background(), EPTSolver{}, skyband.Select(pts, skyband.KSkyband(pts, k)), kq)
			if err != nil {
				t.Fatal(err)
			}
			wants[k] = regionBytes(t, want)
		}
		if !bytes.Equal(regionBytes(t, got), wants[k]) {
			t.Fatalf("k=%d: region differs from E-PT over the k-skyband", k)
		}
	}
	solve := func(prep *Prepared, k int) {
		t.Helper()
		kq := q
		kq.K = k
		got, _, err := EPTSolver{}.Solve(context.Background(), prep, kq)
		if err != nil {
			t.Fatal(err)
		}
		check(k, got)
	}

	deep := PrepareCounted(pts, 3, dom, nil)
	for k := top; k < top+20; k++ {
		solve(deep, k)
	}
	if got := deep.BandViews(); got != 1 {
		t.Fatalf("%d band views after 20 ranks above the largest count, want 1", got)
	}

	// Ascending ranks deepen the query's plane group one rank at a time
	// until the memo is full; past it, bands and planes are built per solve.
	capped := PrepareCounted(pts, 3, dom, nil)
	for k := 1; k < maxBandViews+10; k++ {
		solve(capped, k)
	}
	solve(capped, maxBandViews+5)
	solve(capped, top+3)
	if got := capped.BandViews(); got != maxBandViews {
		t.Fatalf("%d band views, want the cap %d", got, maxBandViews)
	}
	if got := capped.PlaneGroups(); got != 1 {
		t.Fatalf("%d plane groups for one (point, ε), want 1", got)
	}
	if g := capped.store.groups[string(groupKey(nil, q))]; g.kmax != maxBandViews {
		t.Fatalf("plane group at rank %d, want the last memoized rank %d", g.kmax, maxBandViews)
	}

	// Concurrent workers race for the last memo slots; the cap still holds.
	var queries []Query
	for k := maxBandViews + 9; k >= 1; k-- {
		kq := q
		kq.K = k
		queries = append(queries, kq)
	}
	batch := PrepareCounted(pts, 3, dom, nil)
	for i, o := range SolveBatchPolicy(context.Background(), SolvePolicy{Solver: EPTSolver{}}, batch, queries, 4) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		check(queries[i].K, o.Region)
	}
	if got := batch.BandViews(); got > maxBandViews {
		t.Fatalf("%d band views after a concurrent batch, want at most %d", got, maxBandViews)
	}
}

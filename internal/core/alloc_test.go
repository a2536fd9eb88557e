package core

// Allocation-regression tests for the solvers' pooled hot paths: once a
// solve's arena has warmed up, the plane-construction, reduction/ordering
// and sweep kernels must run without a single heap allocation. Every solve
// draws its arena from one pool, so a regression here silently
// reintroduces per-solve garbage on every request; these tests pin the
// steady state at exactly zero.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rrq/internal/dataset"
	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

func TestBuildPlanesArenaZeroAlloc(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 71))
		pts, q := randomInstance(rng, 200, d)
		a := &Arena{}
		warm := buildPlanes(pts, q, a)
		if len(warm.Crossing) == 0 {
			t.Fatalf("d=%d: instance produced no crossing planes; test is vacuous", d)
		}
		allocs := testing.AllocsPerRun(50, func() {
			buildPlanes(pts, q, a)
		})
		if allocs != 0 {
			t.Errorf("d=%d: buildPlanes allocates %.1f per run on a warm arena, want 0", d, allocs)
		}
	}
}

// On a fresh arena, plane construction makes three exact-size allocations —
// the per-point kinds, the flat normal block and the plane headers — however
// many planes cross U, instead of one per crossing plane.
func TestBuildPlanesFixedAlloc(t *testing.T) {
	for d := 2; d <= 5; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 977))
		pts, q := randomInstance(rng, 400, d)
		if ps := buildPlanes(pts, q, &Arena{}); len(ps.Crossing) < 10 {
			t.Fatalf("d=%d: only %d crossing planes; test is vacuous", d, len(ps.Crossing))
		}
		allocs := testing.AllocsPerRun(20, func() {
			buildPlanes(pts, q, &Arena{})
		})
		if allocs > 3 {
			t.Errorf("d=%d: buildPlanes on a fresh arena allocates %.1f per run, want at most 3", d, allocs)
		}
	}
}

func TestReduceAndOrderPlanesZeroAlloc(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 131))
		pts, q := randomInstance(rng, 200, d)
		ps := buildPlanes(pts, q, &Arena{})
		if len(ps.Crossing) < 4 {
			t.Fatalf("d=%d: only %d crossing planes; test is vacuous", d, len(ps.Crossing))
		}
		// A checker on a live deadline and work budget that evaluates on
		// every poll: the reduction's abort checks must not allocate either.
		ctx, cancel := context.WithTimeout(ContextWithWorkBudget(context.Background(), 1<<40), time.Hour)
		defer cancel()
		check := NewCtxChecker(ctx, 0)
		a := &Arena{}
		reduceAndOrderPlanesOpt(ps.Crossing, q.K, false, false, a, check)
		allocs := testing.AllocsPerRun(50, func() {
			reduceAndOrderPlanesOpt(ps.Crossing, q.K, false, false, a, check)
		})
		if allocs != 0 {
			t.Errorf("d=%d: reduceAndOrderPlanesOpt allocates %.1f per run on a warm arena, want 0", d, allocs)
		}
	}
}

// The reduction's dominance counts live in the arena's skyband.Counter: a
// warm arena serves many planes and few, alternating, without allocating.
func TestReduceAndOrderPlanesCounterZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	pts, q := randomInstance(rng, 2000, 4)
	q.K = 40
	ps := buildPlanes(pts, q, &Arena{})
	many := ps.Crossing
	few := many[:40]
	if len(many) < 500 {
		t.Fatalf("only %d crossing planes; the bitset path is not exercised", len(many))
	}
	check := NewCtxChecker(context.Background(), 0)
	a := &Arena{}
	run := func() {
		reduceAndOrderPlanesOpt(many, q.K, false, false, a, check)
		reduceAndOrderPlanesOpt(few, 3, false, false, a, check)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("reduceAndOrderPlanesOpt allocates %.1f per run on a warm arena, want 0", allocs)
	}
}

func TestSweepIntervalsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts, _ := randomInstance(rng, 300, 2)
	// A query point near the top corner keeps PlaneSet.Base empty (no point
	// can dominate it under the (1−ε) scale), so the effective rank stays
	// positive and the sweep actually runs.
	q := Query{Q: vec.Of(0.9, 0.85), K: 3, Eps: 0.1}
	ps := buildPlanes(pts, q, &Arena{})
	k := ps.KEff(q.K)
	if k <= 0 || len(ps.Crossing) == 0 {
		t.Fatalf("degenerate instance (keff=%d, planes=%d); test is vacuous", k, len(ps.Crossing))
	}
	a := &Arena{}
	check := NewCtxChecker(context.Background(), 0)
	var st Stats
	if _, err := sweepIntervals(ps, k, a, &st, check); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		st = Stats{}
		if _, err := sweepIntervals(ps, k, a, &st, check); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sweepIntervals allocates %.1f per run on a warm arena, want 0", allocs)
	}
}

// TestDeriveIntoArenaZeroAlloc pins the plane store's narrowing path: a
// query below its group's rank derives its set — store lookup, count filter
// and ID renumbering — into a warm arena without allocating, and the
// derived set equals a fresh buildPlanes over the query's own band.
func TestDeriveIntoArenaZeroAlloc(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 37))
		pts, q := randomInstance(rng, 200, d)
		prep, err := Prepare(pts, d, true)
		if err != nil {
			t.Fatal(err)
		}
		store := newPlaneStore(prep.bands, nil)
		wide := q
		wide.K = 8
		// The key's first lookup only records it; the second builds its
		// group at rank 8.
		for range 2 {
			store.planes(prep.PointsFor(wide.K), wide, &Arena{}, nil)
		}
		if g := store.groups[string(groupKey(nil, q))]; g == nil || g.kmax != 8 {
			t.Fatalf("d=%d: no plane group at rank 8 after two lookups", d)
		}
		q.K = 3
		band := prep.PointsFor(q.K)
		a := &Arena{}
		got := store.planes(band, q, a, nil)
		want := buildPlanes(band, q, &Arena{})
		if len(want.Crossing) == 0 {
			t.Fatalf("d=%d: instance produced no crossing planes; test is vacuous", d)
		}
		if diff := planeSetDiff(got, want); diff != "" {
			t.Fatalf("d=%d: derived %s", d, diff)
		}
		allocs := testing.AllocsPerRun(50, func() {
			store.planes(band, q, a, nil)
		})
		if allocs != 0 {
			t.Errorf("d=%d: narrowing into a warm arena allocates %.1f per run, want 0", d, allocs)
		}
	}
}

// TestPlaneGroupHitZeroAlloc pins what a plane group costs. A hit at the
// group's own rank builds its headers into a warm arena without
// allocating, and a built group keeps nothing but its per-point kinds and
// its crossing planes' unit normals: cap(kinds) bytes plus 8·d bytes per
// crossing plane, summed over every slice the group holds.
func TestPlaneGroupHitZeroAlloc(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 53))
		pts, q := randomInstance(rng, 200, d)
		prep := PrepareCounted(pts, d, skyband.DominatorCounts(pts), &PlaneCounters{})
		for range 2 {
			prep.planes(q, &Arena{}, nil)
		}
		g := prep.store.groups[string(groupKey(nil, q))]
		if g == nil || !g.ready.Load() || g.kmax != prep.bands.rank(q.K) {
			t.Fatalf("d=%d: no built plane group at the query's rank after two lookups", d)
		}
		a := &Arena{}
		if ps := prep.planes(q, a, nil); len(ps.Crossing) == 0 {
			t.Fatalf("d=%d: instance produced no crossing planes; test is vacuous", d)
		}
		allocs := testing.AllocsPerRun(50, func() {
			prep.planes(q, a, nil)
		})
		if allocs != 0 {
			t.Errorf("d=%d: a hit at the group's rank allocates %.1f per run on a warm arena, want 0", d, allocs)
		}

		crossings := 0
		for _, k := range g.kinds {
			if k == planeCross {
				crossings++
			}
		}
		held := 0
		v := reflect.ValueOf(g).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice {
				held += f.Cap() * int(f.Type().Elem().Size())
			}
		}
		if want := cap(g.kinds) + 8*d*crossings; held != want || cap(g.kinds) != len(g.band.pts) {
			t.Errorf("d=%d: group over %d points (cap(kinds) %d) with %d crossings holds %d bytes, want %d", d, len(g.band.pts), cap(g.kinds), crossings, held, want)
		}
	}
}

// The E-PT slab goes back to the pool when the solve built at most
// maxPooledSlabBytes into it. The decision must not depend on the arena's
// history: a small solve keeps its slab on a fresh arena and on an arena a
// 5-d solve grew past the bound first, though the two slabs' capacities
// lie on opposite sides of the bound.
func TestPooledSlabDecisionIgnoresHistory(t *testing.T) {
	solve := func(a *Arena, d int, pts []vec.Vec, q Query) {
		t.Helper()
		prep, err := Prepare(pts, d, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eptSolve(context.Background(), prep, q, EPTOptions{}, a); err != nil {
			t.Fatal(err)
		}
	}
	capacity := func(s *eptSlab) int { return s.cells.Bytes() + s.nodes.Bytes() + s.lazy.Bytes() }
	instance := func(d, n int, pick func(*Arena) bool) ([]vec.Vec, Query) {
		t.Helper()
		pts := dataset.Generate(dataset.Independent, n, d, 42)
		band := skyband.Select(pts, skyband.KSkyband(pts, 5))
		rng := rand.New(rand.NewSource(7))
		for try := 0; try < 64; try++ {
			q := Query{Q: dataset.RandQuery(rng, band), K: 5, Eps: 0.1}
			a := &Arena{}
			solve(a, d, band, q)
			if pick(a) {
				return band, q
			}
		}
		t.Fatalf("d=%d: no query in 64 fits; test is vacuous", d)
		return nil, Query{}
	}
	small, sq := instance(3, 500, func(a *Arena) bool { return a.ept.nodes.Used() > 0 })
	big, bq := instance(5, 2000, func(a *Arena) bool { return capacity(&a.ept) > maxPooledSlabBytes })

	fresh := &Arena{}
	solve(fresh, 3, small, sq)
	grown := &Arena{}
	solve(grown, 5, big, bq)
	grown.ept.reset()
	solve(grown, 3, small, sq)
	if capacity(&fresh.ept) > maxPooledSlabBytes || capacity(&grown.ept) <= maxPooledSlabBytes {
		t.Fatalf("slab capacities %d (fresh) and %d (grown) do not straddle the bound %d; test is vacuous",
			capacity(&fresh.ept), capacity(&grown.ept), maxPooledSlabBytes)
	}
	if f, g := fresh.ept.keep(), grown.ept.keep(); f != g || !f {
		t.Errorf("the same solve keeps its slab on a fresh arena: %v, on a grown one: %v; want true both times", f, g)
	}
}

// TestFirstSightingZeroAlloc pins the plane store's admission path: the
// lookup of a key the store has not seen records it in the seen table and
// classifies into the solve's warm arena without allocating, and keeps no
// group.
func TestFirstSightingZeroAlloc(t *testing.T) {
	for d := 2; d <= 4; d++ {
		rng := rand.New(rand.NewSource(int64(d) * 53))
		pts, q := randomInstance(rng, 200, d)
		tally := &PlaneCounters{}
		prep := PrepareCounted(pts, d, skyband.DominatorCounts(pts), tally)
		band := prep.PointsFor(q.K)
		a := &Arena{}
		queries := make([]Query, 120) // distinct keys: one ε each
		for i := range queries {
			queries[i] = q
			queries[i].Eps = 0.25 * float64(i) / float64(len(queries))
			buildPlanes(band, queries[i], a) // grow a to the largest set
		}
		if ps := prep.planes(queries[0], a, nil); len(ps.Crossing) == 0 {
			t.Fatalf("d=%d: instance produced no crossing planes; test is vacuous", d)
		}
		i := 1
		allocs := testing.AllocsPerRun(100, func() {
			prep.planes(queries[i], a, nil)
			i++
		})
		if allocs != 0 {
			t.Errorf("d=%d: a first sighting allocates %.1f per run on a warm arena, want 0", d, allocs)
		}
		if got := prep.PlaneGroups(); got != 0 {
			t.Errorf("d=%d: %d plane groups after first sightings only, want 0", d, got)
		}
		if h, m := tally.Hits.Load(), tally.Misses.Load(); h != 0 || m != int64(i) {
			t.Errorf("d=%d: hits/misses = %d/%d, want 0/%d", d, h, m, i)
		}
	}
}

// benchBatch measures one full cold batch — Prepare plus all solves, the
// one-shot SolveBatch workload — over a query set with the structure the
// sharing layer targets: a few query points, each asked at a range of
// ranks (nested plane groups), with exact duplicates mixed in. The shared
// variant dispatches through the batch engine with sharing and dedup on;
// the independent variant answers each query with its own Solve call — the
// serving pattern batch sharing replaces — so ns/op and allocs/op measure
// what the whole sharing layer buys.
func benchBatch(b *testing.B, share bool) {
	rng := rand.New(rand.NewSource(42))
	pts, _ := randomInstance(rng, 400, 3)
	var queries []Query
	for i := 0; i < 4; i++ {
		qp := vec.RandSimplex(rng, 3).Scale(0.9)
		for k := 1; k <= 8; k++ {
			queries = append(queries, Query{Q: qp, K: k, Eps: 0.05})
		}
	}
	queries = append(queries, queries[0], queries[9], queries[17], queries[25])
	pol := SolvePolicy{Solver: EPTSolver{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep, err := Prepare(pts, 3, true)
		if err != nil {
			b.Fatal(err)
		}
		if share {
			outs := SolveBatchPolicy(context.Background(), pol, prep, queries, 1)
			for j := range outs {
				if outs[j].Err != nil {
					b.Fatal(outs[j].Err)
				}
			}
		} else {
			for j, q := range queries {
				if _, _, err := pol.Solve(context.Background(), prep, q, j); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkBatchShared(b *testing.B)      { benchBatch(b, true) }
func BenchmarkBatchIndependent(b *testing.B) { benchBatch(b, false) }

// An E-PT answer holds exactly its cells, their vertex and center floats,
// one record per distinct constraint prefix and one header and unit normal
// per distinct plane: no tight sets, facets or packed-normal blocks. Every
// byte reachable from the answer's cells is counted by reflection and must
// equal cells·sizeof(Cell) + floats·8 + records·sizeof(record) +
// planes·(sizeof(Hyperplane) + 8d). A warm solve allocates no more than
// compacting its answer and wrapping it in a region do.
func TestEPTAnswerFootprint(t *testing.T) {
	cellT := reflect.TypeOf(geom.Cell{})
	recField, _ := cellT.FieldByName("cons")
	recSize := int(recField.Type.Elem().Size())
	hdrSize := int(reflect.TypeOf(geom.Hyperplane{}).Size())
	for _, d := range []int{3, 4} {
		pts := dataset.Generate(dataset.Independent, 400, d, int64(d)+11)
		prep, err := Prepare(pts, d, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		a := &Arena{}
		solve := func(q Query) *Region {
			r, _, err := eptSolve(ctx, prep, q, EPTOptions{}, a)
			a.ept.reset()
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		var q Query
		most := 0
		for _, c := range competitiveQueries(rand.New(rand.NewSource(int64(d))), pts, 32) {
			if n := solve(c).NumPieces(); n > most {
				q, most = c, n
			}
		}
		if most < 8 {
			t.Fatalf("d=%d: the largest answer has %d cells; test is vacuous", d, most)
		}
		r := solve(q)

		floats := 0
		prefixes := map[string]bool{}
		planes := map[int]bool{}
		for _, c := range r.Cells() {
			floats += (c.NumVertices() + 1) * d
			key := ""
			c.EachConstraint(func(con geom.Constraint) {
				key += fmt.Sprintf("%d%+d,", con.H.ID, con.Sign)
				prefixes[key] = true
				planes[con.H.ID] = true
			})
		}
		want := len(r.Cells())*int(cellT.Size()) + 8*floats + len(prefixes)*recSize + len(planes)*(hdrSize+8*d)
		held := 0
		seen := map[heldKey]bool{}
		for _, c := range r.Cells() {
			held += heldBytes(reflect.ValueOf(c), seen)
		}
		if held != want {
			t.Errorf("d=%d: an answer of %d cells, %d floats, %d records and %d planes holds %d bytes, want %d",
				d, len(r.Cells()), floats, len(prefixes), len(planes), held, want)
		}

		got := testing.AllocsPerRun(20, func() { solve(q) })
		cells := r.Cells()
		base := testing.AllocsPerRun(20, func() { r = NewDisjointCellRegion(d, geom.Compact(cells)) })
		if got != base {
			t.Errorf("d=%d: a warm solve allocates %.1f, compacting its answer into a region %.1f", d, got, base)
		}
	}
}

type heldKey struct {
	addr uintptr
	typ  reflect.Type
}

// heldBytes sums the sizes of the objects and slice backings reachable
// from v that seen does not hold yet, adding them to seen.
func heldBytes(v reflect.Value, seen map[heldKey]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[heldKey{v.Pointer(), v.Type()}] {
			return 0
		}
		seen[heldKey{v.Pointer(), v.Type()}] = true
		return int(v.Type().Elem().Size()) + heldBytes(v.Elem(), seen)
	case reflect.Slice:
		if v.IsNil() || seen[heldKey{v.Pointer(), v.Type()}] {
			return 0
		}
		seen[heldKey{v.Pointer(), v.Type()}] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += heldBytes(v.Index(i), seen)
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += heldBytes(v.Field(i), seen)
		}
		return n
	}
	return 0
}

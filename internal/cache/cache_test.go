package cache

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/vec"
)

func q2(x, y float64, k int, eps float64) core.Query {
	return core.Query{Q: vec.Vec{x, y}, K: k, Eps: eps}
}

func region(lo, hi float64) *core.Region {
	return core.NewIntervalRegion([][2]float64{{lo, hi}})
}

func TestExactHitAndMiss(t *testing.T) {
	c := New(8)
	q := q2(0.4, 0.7, 2, 0.1)
	if _, ok := c.Get(1, "E-PT", q); ok {
		t.Fatal("hit on empty cache")
	}
	r := region(0.2, 0.6)
	c.Put(1, "E-PT", q, r)
	got, ok := c.Get(1, "E-PT", q)
	if !ok || got != r {
		t.Fatalf("expected stored region back, got %v ok=%v", got, ok)
	}
	// Different serving path, version, or query → miss.
	if _, ok := c.Get(1, "Sweeping", q); ok {
		t.Fatal("hit across serving paths")
	}
	if _, ok := c.Get(2, "E-PT", q); ok {
		t.Fatal("hit across versions")
	}
	if _, ok := c.Get(1, "E-PT", q2(0.4, 0.7, 3, 0.1)); ok {
		t.Fatal("hit across k")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 4 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 4 misses / 1 entry", s)
	}
}

func TestBoundSelection(t *testing.T) {
	c := New(8)
	// Three neighbors on the same point: a loose inner, a tight inner and
	// a looser one that bounds nothing from inside.
	looseIn, tightIn, out := region(0.4, 0.5), region(0.3, 0.6), region(0.1, 0.9)
	c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.0), looseIn) // reverse top-k seed
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.05), tightIn)
	c.Put(1, "E-PT", q2(0.4, 0.7, 4, 0.3), out)

	ans := c.Bound(1, q2(0.4, 0.7, 2, 0.1))
	if ans == nil || ans.Kind != Inner || ans.Region != tightIn {
		t.Fatalf("want tight inner bound, got %+v", ans)
	}
	if ans.From.K != 2 || ans.From.Eps != 0.05 {
		t.Fatalf("wrong source query: %+v", ans.From)
	}

	// Inner needs k'≤3, ε'≤0.2 — both inner entries apply; tightest is
	// (2, 0.05).
	ans = c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	if ans == nil || ans.Kind != Inner || ans.Region != tightIn {
		t.Fatalf("want inner (2,0.05), got %+v", ans)
	}

	// Nothing below (k=1, ε<0) is cached except (1,0): exact k,ε match
	// returns Exact regardless of path.
	ans = c.Bound(1, q2(0.4, 0.7, 1, 0.0))
	if ans == nil || ans.Kind != Exact || ans.Region != looseIn {
		t.Fatalf("want exact, got %+v", ans)
	}

	// A query below every cached (k', ε') gets no bound.
	c2 := New(8)
	c2.Put(1, "E-PT", q2(0.4, 0.7, 4, 0.3), out)
	if ans := c2.Bound(1, q2(0.4, 0.7, 2, 0.1)); ans != nil {
		t.Fatalf("looser neighbor served as a bound: %+v", ans)
	}

	// Different query point or version → no bound.
	if ans := c.Bound(1, q2(0.5, 0.7, 2, 0.1)); ans != nil {
		t.Fatalf("bound across query points: %+v", ans)
	}
	if ans := c.Bound(2, q2(0.4, 0.7, 2, 0.1)); ans != nil {
		t.Fatalf("bound across versions: %+v", ans)
	}
}

// A looser neighbor beside an inner one changes nothing: the inner one is
// the bound.
func TestBoundPrefersInnerOverOuter(t *testing.T) {
	c := New(8)
	in, out := region(0.3, 0.6), region(0.1, 0.9)
	c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.0), in)
	c.Put(1, "E-PT", q2(0.4, 0.7, 5, 0.5), out)
	ans := c.Bound(1, q2(0.4, 0.7, 2, 0.1))
	if ans == nil || ans.Kind != Inner || ans.Region != in {
		t.Fatalf("want inner preferred, got %+v", ans)
	}
}

func TestIncomparableNeighborServesNothing(t *testing.T) {
	c := New(8)
	// (k'=1, ε'=0.3) vs query (k=2, ε=0.1): k' ≤ k but ε' > ε — not an
	// inner bound.
	c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.3), region(0.2, 0.8))
	if ans := c.Bound(1, q2(0.4, 0.7, 2, 0.1)); ans != nil {
		t.Fatalf("incomparable neighbor served as %v bound", ans.Kind)
	}
}

// Regression for the lexicographic tightest-neighbor pick: (k=3, ε=0.1)
// and (k=2, ε=0.2) are incomparable under the (k, ε) partial order, so
// neither region is a-priori larger — picking by (k, then ε) preferred
// (3, 0.1) even when its cached region was strictly smaller. Dominance
// cannot decide, so the measure proxy must: the larger stored region is
// the tighter inner bound.
func TestBoundIncomparableInnerPicksLargerRegion(t *testing.T) {
	c := New(8)
	small, large := region(0.40, 0.45), region(0.1, 0.9)
	c.Put(1, "E-PT", q2(0.4, 0.7, 3, 0.1), small) // lexicographic winner
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.2), large)
	ans := c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	if ans == nil || ans.Kind != Inner {
		t.Fatalf("want inner bound, got %+v", ans)
	}
	if ans.Region != large {
		t.Fatalf("picked the lexicographic neighbor (%+v) over the strictly larger region", ans.From)
	}
}

// Two incomparable neighbors whose regions measure the same are a tie the
// proxy cannot break; the pick must still be the same on every lookup,
// whatever order the bucket map visits its members in.
func TestBoundEqualMeasureTieIsDeterministic(t *testing.T) {
	c := New(8)
	c.Put(1, "E-PT", q2(0.4, 0.7, 3, 0.1), region(0.25, 0.5))
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.2), region(0.5, 0.75))
	want := c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	if want == nil || want.Kind != Inner {
		t.Fatalf("want inner bound, got %+v", want)
	}
	for i := 0; i < 200; i++ {
		if got := c.Bound(1, q2(0.4, 0.7, 3, 0.2)); got.Region != want.Region {
			t.Fatalf("lookup %d picked %+v, an earlier one %+v", i, got.From, want.From)
		}
	}
	// And several serving paths holding the exact answer: one fixed pick.
	for _, path := range []string{"Sweeping", "E-PT", "LP-CTA", "BruteForce"} {
		c.Put(1, path, q2(0.4, 0.7, 3, 0.2), region(0.1, 0.9))
	}
	first := c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	for i := 0; i < 200; i++ {
		if got := c.Bound(1, q2(0.4, 0.7, 3, 0.2)); got.Kind != Exact || got.Region != first.Region {
			t.Fatalf("exact lookup %d returned a different entry", i)
		}
	}
}

// When candidates are comparable, dominance decides without consulting the
// proxy: the dominating (k', ε') owns the superset region by the
// monotonicity invariant, and the cache trusts the invariant over 256
// Monte-Carlo samples.
func TestBoundDominanceDecidesComparablePairs(t *testing.T) {
	c := New(8)
	dom, sub := region(0.35, 0.5), region(0.1, 0.9)
	c.Put(1, "E-PT", q2(0.4, 0.7, 3, 0.2), dom) // dominates (2, 0.1)
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.1), sub)
	ans := c.Bound(1, q2(0.4, 0.7, 4, 0.3))
	if ans == nil || ans.Kind != Inner || ans.Region != dom {
		t.Fatalf("dominance must pick (3, 0.2) regardless of the proxy, got %+v", ans)
	}
}

// Incomparable-neighbor matrix, including the k-equal and ε-equal edges of
// the partial order (where dominance applies and the historical
// lexicographic pick happened to be right), and looser neighbors, which
// bound nothing.
func TestBoundNeighborMatrix(t *testing.T) {
	mk := func() *Cache {
		c := New(16)
		c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.05), region(0.45, 0.50)) // strict inner
		c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.05), region(0.40, 0.55)) // ε-equal edge
		c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.10), region(0.35, 0.60)) // k-equal edge
		c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.15), region(0.20, 0.80)) // incomparable to (2, 0.10), larger
		c.Put(1, "E-PT", q2(0.4, 0.7, 5, 0.30), region(0.10, 0.90)) // looser
		c.Put(1, "E-PT", q2(0.4, 0.7, 4, 0.40), region(0.15, 0.85)) // looser, incomparable
		return c
	}
	// Inner side of (2, 0.2): candidates are all four low entries;
	// dominance narrows the comparable chains to (2, 0.10), and the
	// incomparable (1, 0.15) wins on measure.
	ans := mk().Bound(1, q2(0.4, 0.7, 2, 0.2))
	if ans == nil || ans.Kind != Inner || ans.From.K != 1 || ans.From.Eps != 0.15 {
		t.Fatalf("inner matrix pick = %+v, want (1, 0.15)", ans)
	}
	// k-equal edge: (2, 0.05) vs (2, 0.10) — dominance on ε.
	c := New(16)
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.05), region(0.40, 0.55))
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.10), region(0.35, 0.60))
	if ans := c.Bound(1, q2(0.4, 0.7, 2, 0.2)); ans == nil || ans.From.Eps != 0.10 {
		t.Fatalf("k-equal edge pick = %+v, want (2, 0.10)", ans)
	}
	// ε-equal edge: (1, 0.05) vs (2, 0.05) — dominance on k.
	c = New(16)
	c.Put(1, "E-PT", q2(0.4, 0.7, 1, 0.05), region(0.45, 0.50))
	c.Put(1, "E-PT", q2(0.4, 0.7, 2, 0.05), region(0.40, 0.55))
	if ans := c.Bound(1, q2(0.4, 0.7, 3, 0.2)); ans == nil || ans.From.K != 2 {
		t.Fatalf("ε-equal edge pick = %+v, want (2, 0.05)", ans)
	}
	ans = mk().Bound(1, q2(0.4, 0.7, 6, 0.45))
	if ans == nil || ans.Kind != Inner {
		t.Fatalf("everything below (6, 0.45) should serve inner, got %+v", ans)
	}
	// Only looser neighbors of (3, 0.25): no bound.
	c = New(16)
	c.Put(1, "E-PT", q2(0.4, 0.7, 5, 0.30), region(0.10, 0.90))
	c.Put(1, "E-PT", q2(0.4, 0.7, 4, 0.40), region(0.15, 0.85))
	if ans := c.Bound(1, q2(0.4, 0.7, 3, 0.25)); ans != nil {
		t.Fatalf("looser neighbors served as a bound: %+v", ans)
	}
}

// Inexact (anytime) entries are sound inner bounds only: never an exact
// hit, never an Exact-kind bound answer.
func TestPutInnerServesOnlyInnerBounds(t *testing.T) {
	c := New(8)
	q := q2(0.4, 0.7, 3, 0.2)
	r := region(0.3, 0.5)
	c.PutInner(1, "anytime", q, r)
	if _, ok := c.Get(1, "anytime", q); ok {
		t.Fatal("inexact entry answered an exact Get")
	}
	// Same (k, ε): the region is a subset, not the answer — Inner, not Exact.
	ans := c.Bound(1, q)
	if ans == nil || ans.Kind != Inner || ans.Region != r {
		t.Fatalf("want inner bound from the inexact entry, got %+v", ans)
	}
	// A stricter query has no inner bound among the cached entries.
	if ans := c.Bound(1, q2(0.4, 0.7, 2, 0.1)); ans != nil {
		t.Fatalf("inexact entry bounded a stricter query: %+v", ans)
	}
	// Re-storing a larger anytime region ratchets the cached bound upward.
	r2 := region(0.2, 0.7)
	c.PutInner(1, "anytime", q, r2)
	if c.Len() != 1 {
		t.Fatalf("PutInner on the same key grew the cache: len=%d", c.Len())
	}
	if ans := c.Bound(1, q); ans == nil || ans.Region != r2 {
		t.Fatalf("re-PutInner did not replace the stored region: %+v", ans)
	}
}

// An exact entry and an inexact entry at incomparable (k, ε): the measure
// proxy compares their stored regions directly, because the inexact
// entry's (k, ε) says nothing about its region's size.
func TestBoundMixedExactInexactComparesByMeasure(t *testing.T) {
	c := New(8)
	big := region(0.1, 0.9)
	c.Put(1, "E-PT", q2(0.4, 0.7, 3, 0.1), region(0.4, 0.45))
	c.PutInner(1, "anytime", q2(0.4, 0.7, 2, 0.2), big)
	ans := c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	if ans == nil || ans.Kind != Inner || ans.Region != big {
		t.Fatalf("want the larger inexact region, got %+v", ans)
	}
	// Comparable case: the exact (3, 0.1) dominates the inexact (2, 0.05)'s
	// key, but the inexact region is larger — measure must still decide,
	// since dominance over an inexact entry is meaningless.
	c = New(8)
	c.Put(1, "E-PT", q2(0.4, 0.7, 3, 0.1), region(0.4, 0.45))
	c.PutInner(1, "anytime", q2(0.4, 0.7, 2, 0.05), big)
	ans = c.Bound(1, q2(0.4, 0.7, 3, 0.2))
	if ans == nil || ans.Kind != Inner || ans.Region != big {
		t.Fatalf("want the larger inexact region under comparability, got %+v", ans)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	qa, qb, qc := q2(0.1, 0.1, 1, 0), q2(0.2, 0.2, 1, 0), q2(0.3, 0.3, 1, 0)
	c.Put(1, "E-PT", qa, region(0, 1))
	c.Put(1, "E-PT", qb, region(0, 1))
	c.Get(1, "E-PT", qa) // refresh a: b is now least recent
	c.Put(1, "E-PT", qc, region(0, 1))
	if _, ok := c.Get(1, "E-PT", qa); !ok {
		t.Fatal("refreshed entry evicted")
	}
	if _, ok := c.Get(1, "E-PT", qb); ok {
		t.Fatal("least-recent entry survived eviction")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Eviction must also clear the bound bucket.
	if ans := c.Bound(1, q2(0.2, 0.2, 2, 0.1)); ans != nil {
		t.Fatalf("evicted entry still served a bound: %+v", ans)
	}
}

func TestPruneDropsDeadGenerations(t *testing.T) {
	c := New(8)
	c.Put(1, "E-PT", q2(0.1, 0.1, 1, 0), region(0, 1))
	c.Put(1, "E-PT", q2(0.2, 0.2, 1, 0), region(0, 1))
	c.Put(2, "E-PT", q2(0.1, 0.1, 1, 0), region(0, 1))
	c.Prune(2)
	if c.Len() != 1 {
		t.Fatalf("len after prune = %d, want 1", c.Len())
	}
	if _, ok := c.Get(2, "E-PT", q2(0.1, 0.1, 1, 0)); !ok {
		t.Fatal("current-version entry pruned")
	}
	if _, ok := c.Get(1, "E-PT", q2(0.1, 0.1, 1, 0)); ok {
		t.Fatal("dead-version entry survived prune")
	}
}

func TestPutIsIdempotentPerKey(t *testing.T) {
	c := New(8)
	q := q2(0.4, 0.7, 2, 0.1)
	r1, r2 := region(0.2, 0.6), region(0.2, 0.6)
	c.Put(1, "E-PT", q, r1)
	c.Put(1, "E-PT", q, r2)
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache: len=%d", c.Len())
	}
	got, _ := c.Get(1, "E-PT", q)
	if got != r2 {
		t.Fatal("re-Put did not replace the stored region")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(64)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				q := q2(float64(i%10)/10, 0.5, 1+i%4, float64(g%3)/10)
				c.Put(uint64(1+i%2), "E-PT", q, region(0, 1))
				c.Get(uint64(1+i%2), "E-PT", q)
				c.Bound(1, q)
				if i%50 == 0 {
					c.Prune(1)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	c.Stats()
}

// Cached regions are shared: an exact hit hands the cached region itself to
// a caller, who may measure it while the cache measures the same region
// under its lock to rank neighbors. Cells are immutable once built, so
// every concurrent reader must see the values a private copy of the region
// measures to; under -race any write to a shared cell fails the test.
func TestSharedCellRegionMeasuredConcurrently(t *testing.T) {
	const d = 3
	pts := dataset.Generate(dataset.Independent, 400, d, 11)
	prep, err := core.Prepare(pts, d, true)
	if err != nil {
		t.Fatal(err)
	}
	qp := vec.Vec{0.8, 1, 0.33}
	solve := func(k int, eps float64) *core.Region {
		r, _, err := core.EPTSolver{}.Solve(context.Background(), prep, core.Query{Q: qp, K: k, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Two incomparable neighbors of (3, 0.2), so Bound ranks them by
	// measure, and private copies of both for the reference values.
	a, b := solve(3, 0.1), solve(2, 0.2)
	refA, refB := solve(3, 0.1), solve(2, 0.2)
	if a.NumPieces() < 2 || b.NumPieces() < 2 {
		t.Fatalf("want multi-cell regions, got %d and %d pieces", a.NumPieces(), b.NumPieces())
	}
	wantA, wantB := refA.MeasureWithSeed(1, 0), refB.MeasureWithSeed(1, 0)
	c := New(8)
	c.Put(1, "E-PT", core.Query{Q: qp, K: 3, Eps: 0.1}, a)
	c.Put(1, "E-PT", core.Query{Q: qp, K: 2, Eps: 0.2}, b)

	var wg sync.WaitGroup
	errs := make(chan string, 16)
	start := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if ans := c.Bound(1, core.Query{Q: qp, K: 3, Eps: 0.2}); ans == nil || ans.Kind != Inner {
			errs <- fmt.Sprintf("want an inner bound, got %+v", ans)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if got := a.MeasureWithSeed(1, 0); got != wantA {
					errs <- fmt.Sprintf("shared region measured %v, its copy %v", got, wantA)
					return
				}
				if got := b.MeasureWithSeed(1, 0); got != wantB {
					errs <- fmt.Sprintf("shared region measured %v, its copy %v", got, wantB)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

package rrq

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// A cache hit must return the byte-identical region of the fresh solve,
// and a mutation must invalidate it (version miss).
func TestIndexResultCacheHitAndVersionMiss(t *testing.T) {
	for _, d := range []int{2, 3} {
		ds, q := indexTestInstance(t, d, int64(300*d))
		reg := NewRegistry()
		ix, err := BuildIndex(ds, WithResultCache(16), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}

		first, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if first.Cache != CacheMiss {
			t.Fatalf("d=%d: first solve cache status = %v, want %v", d, first.Cache, CacheMiss)
		}
		second, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if second.Cache != CacheHit {
			t.Fatalf("d=%d: repeat solve cache status = %v, want %v", d, second.Cache, CacheHit)
		}
		fb, _ := first.Region.MarshalJSON()
		sb, _ := second.Region.MarshalJSON()
		if !bytes.Equal(fb, sb) {
			t.Fatalf("d=%d: cache-served region differs from fresh solve\nfresh: %s\n  hit: %s", d, fb, sb)
		}
		if reg.Counter("cache.hit").Value() != 1 || reg.Counter("cache.miss").Value() != 1 {
			t.Fatalf("d=%d: counters hit=%d miss=%d, want 1/1",
				d, reg.Counter("cache.hit").Value(), reg.Counter("cache.miss").Value())
		}

		// Mutation publishes a new epoch: the old entry can never match.
		if _, err := ix.Insert(ds.PointAt(0)); err != nil {
			t.Fatal(err)
		}
		third, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if third.Cache != CacheMiss {
			t.Fatalf("d=%d: post-insert solve cache status = %v, want %v (version miss)", d, third.Cache, CacheMiss)
		}
		st := ix.Stats()
		if st.Cache == nil {
			t.Fatal("Stats().Cache nil with WithResultCache")
		}
		if st.Cache.Entries != 1 {
			t.Fatalf("d=%d: cache entries after prune = %d, want 1", d, st.Cache.Entries)
		}
	}
}

// A cache miss is always solved exactly, even with cached neighbors on the
// same query point that bound its answer from inside (tighter, ε = 0) and
// outside (looser), and with the deprecated WithCacheBounds switched on.
func TestIndexResultCacheBounds(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 777)
	ix, err := BuildIndex(ds, WithResultCache(16), WithCacheBounds(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, nb := range []Query{
		{Q: q.Q, K: q.K - 1, Epsilon: q.Epsilon / 2},
		{Q: q.Q, K: q.K + 1, Epsilon: q.Epsilon * 2},
		{Q: q.Q, K: q.K, Epsilon: 0},
	} {
		if _, err := ix.SolveContext(ctx, nb); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheMiss || res.CacheSource != nil {
		t.Fatalf("cache status = %v, source = %+v; want %v with no source", res.Cache, res.CacheSource, CacheMiss)
	}
	truth, err := SolveContext(ctx, ds, q, WithSkybandPrefilter(true))
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := res.Region.MarshalJSON()
	wb, _ := truth.Region.MarshalJSON()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("cache miss differs from a fresh solve\n got: %s\nwant: %s", gb, wb)
	}
}

// A cached ε = 0 answer (the reverse top-k region) warm-starts an anytime
// solve of the same point and rank at ε > 0.
func TestIndexCacheTopKSeedsRefinement(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 777)
	reg := NewRegistry()
	ix, err := BuildIndex(ds, WithResultCache(16), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	topk := Query{Q: q.Q, K: q.K, Epsilon: 0}
	seed, err := ix.SolveContext(ctx, topk)
	if err != nil {
		t.Fatal(err)
	}
	// An empty region has no partitions to seed with.
	if seed.Region.NumPartitions() == 0 {
		t.Fatal("reverse top-k region is empty; the instance cannot exercise seeding")
	}
	res, err := ix.SolveContext(ctx, q, WithAnytimeSamples(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierAnytime {
		t.Fatalf("tier = %v, want %v", res.Tier, TierAnytime)
	}
	if res.CacheSource == nil || res.CacheSource.Epsilon != 0 {
		t.Fatalf("source = %+v, want the ε=0 entry", res.CacheSource)
	}
	if got := reg.Counter("cache.warm_start").Value(); got != 1 {
		t.Fatalf("cache.warm_start = %d, want 1", got)
	}
}

// Approximate serving must bypass the cache in both directions: A-PC
// results are neither stored nor served.
func TestIndexCacheBypassesAPC(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 444)
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := ix.SolveContext(ctx, q, WithAlgorithm(APCAlgo), WithSamples(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheBypass {
		t.Fatalf("A-PC cache status = %v, want %v", res.Cache, CacheBypass)
	}
	st := ix.Stats()
	if st.Cache.Entries != 0 {
		t.Fatalf("A-PC answer was cached: %d entries", st.Cache.Entries)
	}
	// An exact solve afterwards is a plain miss, not contaminated by the
	// A-PC call.
	exact, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cache != CacheMiss {
		t.Fatalf("exact solve after A-PC = %v, want %v", exact.Cache, CacheMiss)
	}
}

// Query.Key must agree exactly with equality of (Q, K, Epsilon) and
// distinguish everything else.
func TestQueryKey(t *testing.T) {
	base := Query{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	same := Query{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	if base.Key() != same.Key() {
		t.Fatal("equal queries with different keys")
	}
	variants := []Query{
		{Q: Point{0.4, 0.7}, K: 3, Epsilon: 0.1},
		{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.2},
		{Q: Point{0.4, 0.71}, K: 2, Epsilon: 0.1},
		{Q: Point{0.4, 0.7, 0.5}, K: 2, Epsilon: 0.1},
		{Q: Point{0.4}, K: 2, Epsilon: 0.1},
	}
	seen := map[string]int{base.Key(): -1}
	for i, v := range variants {
		k := v.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("variant %d collides with %d", i, j)
		}
		seen[k] = i
	}
	if s := base.String(); s == "" || s == base.Key() {
		t.Fatalf("String() = %q, want a display form distinct from Key()", s)
	}
}

// A malformed query must fail with its *QueryError even with a neighbor on
// the same point cached, on the exact path and on the anytime tier: ε ≥ 1
// is ≥ every cached ε, so without up-front validation the anytime tier
// would look up a warm-start bound for it.
func TestIndexCacheRejectsInvalidQueryBeforeBoundServing(t *testing.T) {
	ds, q := indexTestInstance(t, 2, 888)
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if _, err := ix.SolveContext(context.Background(), q); err != nil {
		t.Fatalf("seed solve: %v", err)
	}
	for _, bad := range []Query{
		{Q: q.Q, K: 0, Epsilon: q.Epsilon},
		{Q: q.Q, K: q.K, Epsilon: 1.5},
		{Q: q.Q, K: q.K, Epsilon: -0.1},
	} {
		for _, opts := range [][]Option{nil, {WithAnytimeSamples(4)}} {
			var qe *QueryError
			if _, err := ix.SolveContext(context.Background(), bad, opts...); !errors.As(err, &qe) {
				t.Fatalf("query %+v through a cached index (%d opts): err=%v, want *QueryError", bad, len(opts), err)
			}
		}
	}
}

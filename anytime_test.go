package rrq

import (
	"context"
	"errors"
	"testing"
	"time"

	"rrq/internal/faultinject"
)

// An anytime solve must report the tier and an accuracy contract, respect
// a deterministic sample budget, stay sound against the exact answer, and
// grow monotonically with the budget.
func TestAnytimeTierSolveContract(t *testing.T) {
	ds, q := indexTestInstance(t, 4, 9001)
	ctx := context.Background()
	truth, err := SolveContext(ctx, ds, q)
	if err != nil {
		t.Fatal(err)
	}

	var prev *Region
	for _, budget := range []int{5, 10, 20} {
		res, err := SolveContext(ctx, ds, q, WithAnytimeSamples(budget), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != TierAnytime {
			t.Fatalf("budget %d: tier = %v, want %v", budget, res.Tier, TierAnytime)
		}
		if res.Accuracy == nil {
			t.Fatalf("budget %d: nil Accuracy on an anytime result", budget)
		}
		if res.Accuracy.SamplesUsed > budget {
			t.Fatalf("budget %d: consumed %d samples", budget, res.Accuracy.SamplesUsed)
		}
		if res.Accuracy.RhoBound <= 0 || res.Accuracy.RhoBound > 1 {
			t.Fatalf("budget %d: ρ bound %v out of (0, 1]", budget, res.Accuracy.RhoBound)
		}
		// Soundness: every sampled member of the cut qualifies for real.
		for seed := int64(1); seed <= 20; seed++ {
			if u := res.Region.Sample(seed); u != nil && !truth.Region.Contains(u) {
				t.Fatalf("budget %d: anytime region contains non-member %v", budget, u)
			}
		}
		// Monotonicity: a larger budget's region contains a smaller one's.
		if prev != nil {
			for seed := int64(1); seed <= 20; seed++ {
				if u := prev.Sample(seed); u != nil && !res.Region.Contains(u) {
					t.Fatalf("budget %d: dropped member %v of the smaller cut", budget, u)
				}
			}
		}
		prev = res.Region
	}
}

// Tier classification on the non-anytime paths: exact solvers report
// TierExact, a forced A-PC solve TierApprox, and batches agree with
// standalone solves.
func TestSolverTierClassification(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9002)
	ctx := context.Background()

	exact, err := SolveContext(ctx, ds, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Tier != TierExact {
		t.Fatalf("exact solve tier = %v, want %v", exact.Tier, TierExact)
	}
	approx, err := SolveContext(ctx, ds, q, WithAlgorithm(APCAlgo), WithSamples(30))
	if err != nil {
		t.Fatal(err)
	}
	if approx.Tier != TierApprox {
		t.Fatalf("A-PC solve tier = %v, want %v", approx.Tier, TierApprox)
	}
	if approx.Accuracy != nil {
		t.Fatal("plain A-PC solve carries an Accuracy contract; only anytime cuts do")
	}

	rep, err := SolveBatch(ctx, ds, []Query{q, q}, WithAlgorithm(APCAlgo), WithSamples(30))
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range rep.Results {
		if br.Err != nil {
			t.Fatalf("batch query %d: %v", i, br.Err)
		}
		if br.Tier != TierApprox {
			t.Fatalf("batch query %d tier = %v, want %v", i, br.Tier, TierApprox)
		}
	}

	for _, tc := range []struct {
		tier SolverTier
		want string
	}{{TierExact, "exact"}, {TierApprox, "approx"}, {TierAnytime, "anytime"}} {
		if tc.tier.String() != tc.want {
			t.Fatalf("String(%d) = %q, want %q", int(tc.tier), tc.tier.String(), tc.want)
		}
	}
}

// An anytime batch answers every query independently on the anytime tier.
func TestAnytimeBatch(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9003)
	q2 := Query{Q: q.Q, K: q.K + 1, Epsilon: q.Epsilon}
	rep, err := SolveBatch(context.Background(), ds, []Query{q, q2}, WithAnytimeSamples(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved != 2 || rep.Failed != 0 {
		t.Fatalf("solved=%d failed=%d, want 2/0", rep.Solved, rep.Failed)
	}
	for i, br := range rep.Results {
		if br.Tier != TierAnytime || br.Accuracy == nil {
			t.Fatalf("batch query %d: tier=%v accuracy=%v, want anytime contract", i, br.Tier, br.Accuracy)
		}
		if br.Accuracy.SamplesUsed > 8 {
			t.Fatalf("batch query %d consumed %d samples over the budget", i, br.Accuracy.SamplesUsed)
		}
	}
}

// Repeated anytime queries through a cached index must ratchet: the first
// cut is stored as an inner bound, the second solve warm-starts from it
// (naming its source), and the served region never shrinks.
func TestIndexAnytimeWarmStartRatchet(t *testing.T) {
	ds, q := indexTestInstance(t, 4, 9004)
	reg := NewRegistry()
	ix, err := BuildIndex(ds, WithResultCache(16), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	first, err := ix.SolveContext(ctx, q, WithAnytimeSamples(6), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if first.Tier != TierAnytime || first.Cache != CacheMiss {
		t.Fatalf("first anytime solve: tier=%v cache=%v, want anytime miss", first.Tier, first.Cache)
	}
	if first.CacheSource != nil {
		t.Fatal("first anytime solve reports a warm-start source on an empty cache")
	}

	// A different seed draws a different sample stream, so the second run
	// would explore different partitions — the warm start must still keep
	// every member of the first cut.
	second, err := ix.SolveContext(ctx, q, WithAnytimeSamples(6), WithSeed(12))
	if err != nil {
		t.Fatal(err)
	}
	if second.Tier != TierAnytime {
		t.Fatalf("second solve tier = %v, want %v", second.Tier, TierAnytime)
	}
	if second.CacheSource == nil || second.CacheSource.K != q.K || second.CacheSource.Epsilon != q.Epsilon {
		t.Fatalf("second solve warm-start source = %+v, want the first cut's query", second.CacheSource)
	}
	if got := reg.Counter("cache.warm_start").Value(); got != 1 {
		t.Fatalf("cache.warm_start = %d, want 1", got)
	}
	for seed := int64(1); seed <= 30; seed++ {
		if u := first.Region.Sample(seed); u != nil && !second.Region.Contains(u) {
			t.Fatalf("warm-started solve dropped member %v of the previous cut", u)
		}
	}

	// The stored entry is an inner bound, never an exact artifact: an exact
	// solve of the same query must miss (and must not be contaminated).
	exact, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cache != CacheMiss || exact.Tier != TierExact {
		t.Fatalf("exact solve after anytime entries: cache=%v tier=%v, want exact miss", exact.Cache, exact.Tier)
	}
}

// A cached exact artifact for the identical (k, ε) short-circuits an
// anytime request: the true answer beats any cut.
func TestIndexAnytimeServesExactHit(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9005)
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	exact, err := ix.SolveContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SolveContext(ctx, q, WithAnytime(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != CacheHit || res.Tier != TierExact {
		t.Fatalf("anytime request on a cached exact answer: cache=%v tier=%v, want exact hit", res.Cache, res.Tier)
	}
	if res.Accuracy != nil {
		t.Fatal("exact cache hit carries an Accuracy contract")
	}
	eb, _ := exact.Region.MarshalJSON()
	rb, _ := res.Region.MarshalJSON()
	if string(eb) != string(rb) {
		t.Fatal("served region differs from the cached exact artifact")
	}
}

// A cached exact inner neighbor (tighter k, ε on the same point) seeds the
// anytime construction even when the budget alone would return less.
func TestIndexAnytimeWarmStartsFromExactNeighbor(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9006)
	ix, err := BuildIndex(ds, WithResultCache(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tight := Query{Q: q.Q, K: q.K - 1, Epsilon: q.Epsilon / 2}
	tres, err := ix.SolveContext(ctx, tight)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ix.SolveContext(ctx, q, WithAnytimeSamples(4), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierAnytime {
		t.Fatalf("tier = %v, want %v", res.Tier, TierAnytime)
	}
	if res.CacheSource == nil || res.CacheSource.K != tight.K {
		t.Fatalf("warm-start source = %+v, want the tighter neighbor", res.CacheSource)
	}
	for seed := int64(1); seed <= 30; seed++ {
		if u := tres.Region.Sample(seed); u != nil && !res.Region.Contains(u) {
			t.Fatalf("anytime cut dropped member %v of its exact seed", u)
		}
	}
}

// planeSteps is the plane-store traffic of one (point, ε) solved four times
// on one snapshot: a key gets a group only when it comes back, so the first
// solve misses and keeps nothing, the second misses and builds the group,
// and the third and fourth hit.
var planeSteps = []IndexStats{
	{PlaneMisses: 1},
	{PlaneMisses: 2, PlaneSets: 1},
	{PlaneMisses: 2, PlaneHits: 1, PlaneSets: 1},
	{PlaneMisses: 2, PlaneHits: 2, PlaneSets: 1},
}

func checkPlaneStep(t *testing.T, ix *Index, i int, tier string) {
	t.Helper()
	st, w := ix.Stats(), planeSteps[i]
	if st.PlaneHits != w.PlaneHits || st.PlaneMisses != w.PlaneMisses || st.PlaneSets != w.PlaneSets {
		t.Fatalf("solve %d (%s): plane hits/misses/sets = %d/%d/%d, want %d/%d/%d", i, tier,
			st.PlaneHits, st.PlaneMisses, st.PlaneSets, w.PlaneHits, w.PlaneMisses, w.PlaneSets)
	}
}

// An anytime solve takes its hyper-planes from the snapshot's plane store,
// as exact solves do: the group two anytime solves built serves a third
// anytime solve and then an exact solve of the same query.
func TestIndexAnytimeSharesPlanes(t *testing.T) {
	ds, q := indexTestInstance(t, 4, 9007)
	ix, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range planeSteps {
		tier, opts := "anytime", []Option{WithAnytimeSamples(8), WithSeed(3)}
		if i == len(planeSteps)-1 {
			tier, opts = "exact", nil
		}
		if _, err := ix.SolveContext(ctx, q, opts...); err != nil {
			t.Fatal(err)
		}
		checkPlaneStep(t, ix, i, tier)
	}
}

// LP-CTA takes its hyper-planes from the snapshot's plane store like every
// core solver: the group two LP-CTA solves built serves a third LP-CTA
// solve and then an E-PT solve of the same query.
func TestIndexLPCTASharesPlanes(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9007)
	ix, err := BuildIndex(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := range planeSteps {
		algo := LPCTAAlgo
		if i == len(planeSteps)-1 {
			algo = EPTAlgo
		}
		res, err := ix.SolveContext(ctx, q, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PlanesBuilt == 0 {
			t.Fatalf("solve %d: no crossing planes; test is vacuous", i)
		}
		checkPlaneStep(t, ix, i, algo.String())
	}
}

// A panic in an anytime solve is isolated like any other solver panic: the
// tier runs through the one guarded solve path, so the panic comes back as
// a *SolveError naming A-PC — from a dataset solve, from an index solve,
// and from exactly the batch slot whose query it hit.
func TestAnytimePanicIsolated(t *testing.T) {
	ds, q := indexTestInstance(t, 3, 9007)
	other := Query{Q: ds.RandomQuery(9100), K: q.K, Epsilon: q.Epsilon}
	armed := func() context.Context {
		inj := faultinject.New(&faultinject.Fault{
			Point:  faultinject.SolveStart,
			Match:  faultinject.MatchPoint(q.Q),
			Panics: "injected anytime failure",
		})
		return faultinject.ContextWith(context.Background(), inj)
	}
	wantPanic := func(what string, err error, index int) {
		t.Helper()
		var se *SolveError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *SolveError", what, err)
		}
		if se.Solver != "A-PC" || se.QueryIndex != index {
			t.Fatalf("%s: SolveError{Solver: %q, QueryIndex: %d}, want A-PC at %d", what, se.Solver, se.QueryIndex, index)
		}
	}
	opts := []Option{WithAnytimeSamples(20), WithSeed(1)}

	_, err := SolveContext(armed(), ds, q, opts...)
	wantPanic("SolveContext", err, -1)

	ix, err := BuildIndex(ds, WithResultCache(8))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.SolveContext(armed(), q, opts...)
	wantPanic("Index.SolveContext", err, -1)

	p, err := Prepare(ds, append(opts, WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	rep := p.SolveBatch(armed(), []Query{other, q, other})
	if rep.Solved != 2 || rep.Failed != 1 || rep.Deduped != 1 {
		t.Fatalf("solved=%d failed=%d deduped=%d, want 2/1/1", rep.Solved, rep.Failed, rep.Deduped)
	}
	wantPanic("batch slot 1", rep.Results[1].Err, 1)
	for _, i := range []int{0, 2} {
		br := rep.Results[i]
		if br.Err != nil || br.Tier != TierAnytime || br.Accuracy == nil {
			t.Fatalf("batch slot %d: err=%v tier=%v accuracy=%v, want an anytime answer", i, br.Err, br.Tier, br.Accuracy)
		}
	}
}

package diffcheck

// Cache differential harness: the result cache must be invisible in exact
// answers and sound in the inner bounds it hands the anytime tier as
// warm-start seeds. For every corpus problem,
//
//   - an exact cache hit must be byte-identical — same JSON encoding, not
//     merely same membership — to a from-scratch solve;
//   - an inner bound from a tighter cached neighbor must honor the
//     diffcheck-proven monotonicity invariant R(q,k',ε') ⊆ R(q,k,ε) for
//     k' ≤ k, ε' ≤ ε: it must be contained in the true region, with
//     membership evaluated against the half-space counting oracle on a
//     margin-guarded sample grid;
//   - an ε = 0 cached answer (ReverseTopK) must serve as an inner seed for
//     the same query at ε > 0;
//   - a version bump must miss: no entry from a superseded epoch may ever
//     be served, and pruning the old epoch empties the cache.

import (
	"bytes"
	"context"
	"fmt"

	"rrq/internal/cache"
	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

// CacheReport is the outcome of a cache differential run.
type CacheReport struct {
	// Problems is the number of corpus problems checked.
	Problems int
	// ExactChecks counts exact-hit byte comparisons performed.
	ExactChecks int
	// BoundChecks counts inner-bound scenarios exercised (tighter neighbor,
	// ε = 0 seed).
	BoundChecks int
	// SampleChecks counts individual margin-guarded membership assertions.
	SampleChecks int
	// SolveSkipped counts problems abandoned because the reference solve
	// itself failed (degenerate families may reject queries); those paths
	// are the solver's to report, not the cache's.
	SolveSkipped int
	// Mismatches holds every disagreement.
	Mismatches []Mismatch
}

func (rep *CacheReport) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

// RunCache executes the cache differential harness over the same corpus
// enumeration as Run and RunIndex. Like them it never panics on a mismatch;
// callers decide how to fail.
func RunCache(cfg Config) CacheReport {
	cfg = cfg.withDefaults()
	var rep CacheReport
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		rep.Problems++
		checkCacheProblem(cfg, ins, int64(i), &rep)
	}
	return rep
}

// cacheServePath is the serving-path component of the exact cache key used
// throughout the harness; any fixed string works because every lookup uses
// the same one.
const cacheServePath = "E-PT"

// checkCacheProblem runs every cache scenario on one corpus instance.
func checkCacheProblem(cfg Config, ins corpus.Instance, ordinal int64, rep *CacheReport) {
	d := ins.Q.Dim()
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)
	version := uint64(ordinal + 1)

	solve := func(qq core.Query) (*core.Region, []byte, error) {
		prep, err := core.Prepare(ins.Pts, d, true)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := (core.EPTSolver{}).Solve(context.Background(), prep, qq)
		if err != nil {
			return nil, nil, err
		}
		b, err := r.MarshalJSON()
		return r, b, err
	}

	base, _, err := solve(q)
	if err != nil {
		rep.SolveSkipped++
		return
	}

	// Exact hit: a cached answer must be byte-identical to an independent
	// from-scratch solve of the same query.
	c := cache.New(16)
	c.Put(version, cacheServePath, q, base)
	got, ok := c.Get(version, cacheServePath, q)
	if !ok {
		rep.fail(Mismatch{Kind: "cache-miss-expected-hit", Problem: prob,
			Detail: "entry just stored was not served"})
		return
	}
	_, freshBytes, err := solve(q)
	if err != nil {
		rep.fail(Mismatch{Kind: "cache-reference-error", Problem: prob,
			Detail: "re-solve failed after initial solve succeeded: " + err.Error()})
		return
	}
	servedBytes, err := got.MarshalJSON()
	if err != nil {
		rep.fail(Mismatch{Kind: "cache-reference-error", Problem: prob, Detail: err.Error()})
		return
	}
	rep.ExactChecks++
	if !bytes.Equal(servedBytes, freshBytes) {
		rep.fail(Mismatch{Kind: "cache-byte-divergence", Problem: prob,
			Detail: fmt.Sprintf("cache-served region differs from fresh solve\n got: %s\nwant: %s", servedBytes, freshBytes)})
		return
	}

	// Version miss: the next epoch must not see the entry, and pruning to
	// the next epoch must empty the cache entirely.
	if _, ok := c.Get(version+1, cacheServePath, q); ok {
		rep.fail(Mismatch{Kind: "cache-stale-serve", Problem: prob,
			Detail: "entry stored at one epoch served at the next"})
		return
	}
	if ans := c.Bound(version+1, q); ans != nil {
		rep.fail(Mismatch{Kind: "cache-stale-serve", Problem: prob,
			Detail: "bound from a superseded epoch was served"})
		return
	}
	c.Prune(version + 1)
	if c.Len() != 0 {
		rep.fail(Mismatch{Kind: "cache-stale-serve", Problem: prob,
			Detail: fmt.Sprintf("%d entries survived pruning to the next epoch", c.Len())})
		return
	}

	oracle := newPlaneOracle(ins.Pts, q)
	grid := sampleGrid(d, cfg.Seed^(ordinal*65537+29), cfg.RandSamples)

	// Inner bound from a strictly tighter cached neighbor.
	tight := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps / 2}
	if tight.K > 1 {
		tight.K--
	}
	if tight.K < q.K || tight.Eps < q.Eps {
		checkCacheBound(cfg, ins, prob, version, q, tight, oracle, grid, solve, rep)
	}

	// ε = 0 seed: the cached ReverseTopK answer for the same point and rank
	// must serve as an inner bound for the ε > 0 query.
	if ins.Eps > 0 {
		seed := core.Query{Q: ins.Q, K: ins.K, Eps: 0}
		checkCacheBound(cfg, ins, prob, version, q, seed, oracle, grid, solve, rep)
	}
}

// checkCacheBound stores the tighter neighbor's fresh answer, asks the
// cache for a bound on q, and verifies that it comes back as an inner
// bound, the byte-level integrity of the returned region against a fresh
// solve of the neighbor, and the monotonicity containment on the
// margin-guarded sample grid.
func checkCacheBound(cfg Config, ins corpus.Instance, prob Problem, version uint64, q, neighbor core.Query,
	oracle *planeOracle, grid []vec.Vec, solve func(core.Query) (*core.Region, []byte, error), rep *CacheReport) {

	nr, nrBytes, err := solve(neighbor)
	if err != nil {
		// The neighbor query itself is unsolvable for this instance (e.g. a
		// degenerate family rejects it); nothing to cache, nothing to serve.
		return
	}
	c := cache.New(16)
	c.Put(version, cacheServePath, neighbor, nr)
	rep.BoundChecks++
	ans := c.Bound(version, q)
	if ans == nil {
		rep.fail(Mismatch{Kind: "cache-bound-kind", Problem: prob,
			Detail: fmt.Sprintf("no inner bound for (k=%d, ε=%g) from cached neighbor (k=%d, ε=%g)",
				q.K, q.Eps, neighbor.K, neighbor.Eps)})
		return
	}
	if ans.Kind != cache.Inner {
		rep.fail(Mismatch{Kind: "cache-bound-kind", Problem: prob,
			Detail: fmt.Sprintf("neighbor (k=%d, ε=%g) served as %v for (k=%d, ε=%g); want %v",
				neighbor.K, neighbor.Eps, ans.Kind, q.K, q.Eps, cache.Inner)})
		return
	}
	servedBytes, err := ans.Region.MarshalJSON()
	if err != nil {
		rep.fail(Mismatch{Kind: "cache-reference-error", Problem: prob, Detail: err.Error()})
		return
	}
	if !bytes.Equal(servedBytes, nrBytes) {
		rep.fail(Mismatch{Kind: "cache-byte-divergence", Problem: prob,
			Detail: "inner-bound region differs from a fresh solve of the cached neighbor"})
		return
	}

	// Monotonicity containment, sample by sample. Samples within the margin
	// of either query's decision boundary are skipped — the documented
	// numerical policy, identical to the solver-equivalence harness.
	nOracle := newPlaneOracle(ins.Pts, neighbor)
	for _, u := range grid {
		truth, m1 := oracle.qualified(u)
		_, m2 := nOracle.qualified(u)
		if m1 < cfg.Margin || m2 < cfg.Margin {
			continue
		}
		rep.SampleChecks++
		if ans.Region.Contains(u) && !truth {
			rep.fail(Mismatch{Kind: "cache-inner-unsound", Problem: prob, U: u,
				Detail: fmt.Sprintf("inner bound from (k=%d, ε=%g) contains a point outside R(q, k=%d, ε=%g)",
					neighbor.K, neighbor.Eps, q.K, q.Eps)})
			return
		}
	}
}

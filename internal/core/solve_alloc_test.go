//go:build !race

// The race detector's sync.Pool drops a share of the arenas put back at
// random, so per-solve allocations are only pinned without it.

package core

import (
	"context"
	"math/rand"
	"testing"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
)

// A single solve draws its scratch from the same arena pool a batch solve
// does, so it allocates no more than the same query answered as a
// one-query batch (which adds only the batch's own bookkeeping).
func TestSingleSolveFixedAlloc(t *testing.T) {
	cases := []struct {
		name   string
		d      int
		solver Solver
	}{
		{"sweeping-2d", 2, SweepingSolver{}},
		{"ept-3d", 3, EPTSolver{}},
		{"ept-4d", 4, EPTSolver{}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := dataset.Generate(dataset.Independent, 2000, tc.d, int64(ci)+31)
			prep := PrepareCounted(pts, tc.d, skyband.DominatorCounts(pts), nil)
			pol := SolvePolicy{Solver: tc.solver}
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(ci) + 7))
			var q Query
			found := false
			for _, cand := range competitiveQueries(rng, pts, 64) {
				_, st, err := pol.Solve(ctx, prep, cand, 0)
				if err != nil {
					t.Fatal(err)
				}
				work := st.PlanesInserted
				if tc.d == 2 {
					work = st.PlanesBuilt
				}
				if work >= 1 {
					q, found = cand, true
					break
				}
			}
			if !found {
				t.Fatal("no query in 64 does plane work; test is vacuous")
			}
			single := testing.AllocsPerRun(20, func() {
				if _, _, err := pol.Solve(ctx, prep, q, 0); err != nil {
					panic(err)
				}
			})
			batch := testing.AllocsPerRun(20, func() {
				if out := SolveBatchPolicy(ctx, pol, prep, []Query{q}, 1); out[0].Err != nil {
					panic(out[0].Err)
				}
			})
			t.Logf("allocations: single solve %.0f, one-query batch %.0f", single, batch)
			if single > batch {
				t.Errorf("a single solve allocates %.1f, a one-query batch %.1f: want single ≤ batch", single, batch)
			}
		})
	}
}

// A warm serial E-PT solve allocates a fixed handful of objects — the
// compacted answer, its region, the packed normals and the checker — however
// many cells its tree splits: every cell, node and lazy plane list of the
// tree lives in the pooled arena's slab. Two 4-d instances whose split
// counts differ at least fourfold must both stay under one bound.
func TestEPTSolveFixedAlloc(t *testing.T) {
	const bound = 24
	pts := dataset.Generate(dataset.Independent, 2000, 4, 5)
	prep := PrepareCounted(pts, 4, skyband.DominatorCounts(pts), nil)
	ctx := context.Background()
	s := EPTSolver{}
	var few, many Query
	fewSplits, manySplits := 0, 0
	rng := rand.New(rand.NewSource(17))
	for _, q := range competitiveQueries(rng, pts, 64) {
		_, st, err := s.Solve(ctx, prep, q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Pieces == 0 || st.Splits < 4 {
			continue
		}
		if fewSplits == 0 || st.Splits < fewSplits {
			few, fewSplits = q, st.Splits
		}
		if st.Splits > manySplits {
			many, manySplits = q, st.Splits
		}
	}
	if manySplits < 4*fewSplits {
		t.Fatalf("split counts %d and %d differ less than fourfold; test is vacuous", fewSplits, manySplits)
	}
	for _, c := range []struct {
		q      Query
		splits int
	}{{few, fewSplits}, {many, manySplits}} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := s.Solve(ctx, prep, c.q); err != nil {
				panic(err)
			}
		})
		t.Logf("%d splits: %.1f allocations per solve", c.splits, allocs)
		if allocs > bound {
			t.Errorf("a warm solve with %d splits allocates %.1f, want at most %d", c.splits, allocs, bound)
		}
	}
}

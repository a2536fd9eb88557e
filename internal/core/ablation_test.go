package core

import (
	"context"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// Every ablated variant must still be exact: disabling an acceleration may
// cost time but never correctness.
func TestEPTAblationVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	variants := []EPTOptions{
		{NoReduction: true},
		{NoOrdering: true},
		{NoLazySplit: true},
		{NoReduction: true, NoOrdering: true, NoLazySplit: true},
	}
	for _, d := range []int{2, 3, 4} {
		for trial := 0; trial < 10; trial++ {
			pts, q := randomInstance(rng, 10+rng.Intn(30), d)
			want, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			for vi, opt := range variants {
				got, _, err := solveOn(context.Background(), EPTSolver{Opt: opt}, pts, q)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 150; i++ {
					u := vec.RandSimplex(rng, d)
					_, margin := CountBetter(pts, q, u)
					if margin < boundaryMargin {
						continue
					}
					if want.Contains(u) != got.Contains(u) {
						t.Fatalf("d=%d trial=%d variant=%d (%+v): disagreement at %v",
							d, trial, vi, opt, u)
					}
				}
			}
		}
	}
}

// The reduction must never increase the number of planes inserted, and the
// full solver should not build more nodes than the unordered variant on a
// nontrivial instance (the ordering exists to invalidate nodes early).
func TestEPTAblationStats(t *testing.T) {
	rng := rand.New(rand.NewSource(910))
	pts := make([]vec.Vec, 200)
	for i := range pts {
		pts[i] = vec.Of(0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64(), 0.1+0.8*rng.Float64())
	}
	q := Query{Q: vec.Of(0.75, 0.75, 0.75), K: 5, Eps: 0.1}
	_, full, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	_, noRed, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{NoReduction: true}}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.PlanesInserted > noRed.PlanesInserted {
		t.Fatalf("reduction increased planes: %d vs %d", full.PlanesInserted, noRed.PlanesInserted)
	}
	_, eager, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{NoLazySplit: true}}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if full.Splits > eager.Splits {
		t.Fatalf("lazy splitting split more than eager: %d vs %d", full.Splits, eager.Splits)
	}
}

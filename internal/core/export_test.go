package core

import (
	"context"
	"math/rand"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// competitiveQueries draws n queries near skyline points of pts, the
// queries whose regions are neither trivially empty nor the whole simplex.
func competitiveQueries(rng *rand.Rand, pts []vec.Vec, n int) []Query {
	var sky []vec.Vec
	for _, i := range skyband.Skyline(pts) {
		sky = append(sky, pts[i])
	}
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Q: dataset.RandQuery(rng, sky), K: 1 + rng.Intn(4), Eps: 0.05 + 0.15*rng.Float64()}
	}
	return qs
}

// CompetitiveQueries exposes competitiveQueries to the package's external
// tests, which run the baseline solvers too and so cannot live in package
// core.
var CompetitiveQueries = competitiveQueries

// SolveEPTIn runs an E-PT solve in the arena a, which the caller keeps
// instead of drawing one from the pool, and resets a's slab as returning
// it to the pool does.
func SolveEPTIn(ctx context.Context, prep *Prepared, q Query, a *Arena) (*Region, Stats, error) {
	defer a.ept.reset()
	return eptSolve(ctx, prep, q, EPTOptions{}, a)
}

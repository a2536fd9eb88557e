package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

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

// Every solve borrows its scratch arena from a shared pool, so a region
// that aliased arena memory would be rewritten by whichever solve takes
// the arena next. Keep the encodings of a first round of regions, run
// concurrent solves over the same pool, and require every kept region to
// encode to the same bytes afterwards.
func TestPooledArenaNotRetained(t *testing.T) {
	cases := []struct {
		name   string
		d, n   int
		solver Solver
	}{
		{"sweeping-2d", 2, 300, SweepingSolver{}},
		{"ept-3d", 3, 150, EPTSolver{}},
		{"ept-4d", 4, 100, EPTSolver{}},
		{"brute-2d", 2, 60, BruteForceSolver{}},
		{"brute-3d", 3, 30, BruteForceSolver{}},
		// A-PC's partitions keep their constraints' normals, merged or cut.
		{"apc-merged-3d", 3, 150, APCSolver{Opt: APCOptions{Samples: 40, Seed: 3}}},
		{"apc-cut-4d", 4, 100, APCSolver{Opt: APCOptions{Samples: 60, Seed: 3, MaxSamples: 30}}},
	}
	for ci, tc := range cases {
		pts := dataset.Generate(dataset.Independent, tc.n, tc.d, int64(ci)+5)
		storeless, err := Prepare(pts, tc.d, false)
		if err != nil {
			t.Fatal(err)
		}
		preps := []struct {
			name string
			prep *Prepared
		}{
			{"counted", PrepareCounted(pts, tc.d, skyband.DominatorCounts(pts), nil)},
			{"storeless", storeless},
		}
		for _, p := range preps {
			prep := p.prep
			t.Run(fmt.Sprintf("%s/%s", tc.name, p.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ci) * 101))
				queries := competitiveQueries(rng, pts, 64)
				pol := SolvePolicy{Solver: tc.solver}
				ctx := context.Background()
				regions := make([]*Region, len(queries))
				kept := make([][]byte, len(queries))
				nonEmpty := 0
				for i, q := range queries {
					r, _, err := pol.Solve(ctx, prep, q, i)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					if kept[i], err = r.MarshalJSON(); err != nil {
						t.Fatal(err)
					}
					regions[i] = r
					if !r.Empty() {
						nonEmpty++
					}
				}
				if nonEmpty < len(queries)/4 {
					t.Fatalf("only %d of %d regions are non-empty; test is vacuous", nonEmpty, len(queries))
				}

				more := competitiveQueries(rng, pts, 32)
				var wg sync.WaitGroup
				errs := make(chan error, 4)
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := range more {
							q := more[(j+8*w)%len(more)]
							if _, _, err := pol.Solve(ctx, prep, q, j); err != nil {
								errs <- err
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}

				changed := 0
				for i, r := range regions {
					b, err := r.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(b, kept[i]) {
						changed++
					}
				}
				if changed > 0 {
					t.Fatalf("%d of %d kept regions changed after later solves: a region aliases pooled scratch", changed, len(regions))
				}
			})
		}
	}
}

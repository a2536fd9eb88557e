package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/skyband"
)

// Every solve borrows its scratch arena from a shared pool, so a region
// that aliased arena memory would be rewritten by whichever solve takes
// the arena next. Keep the encodings of a first round of regions, run
// concurrent solves over the same pool, and require every kept region to
// encode to the same bytes afterwards. Solvers whose answers keep the
// plane normals (brute force, A-PC, LP-CTA) take them from
// Prepared.Planes, never the pool. E-PT builds its whole tree in the
// arena's slab, so its slab row requires real splits and catches a leaf
// that escaped compaction. Its tree's records point at plane headers in
// the arena, whose normals are packed into an arena block, so the E-PT
// rows run their first round on one arena of their own, grown beforehand
// by the same queries: each later solve then rewrites the headers and the
// packed block in place, as does a last serial round on that arena after
// the concurrent one, before the kept regions are re-encoded. An answer
// that kept a header or normal of the arena's changes bytes.
func TestPooledArenaNotRetained(t *testing.T) {
	cases := []struct {
		name   string
		d, n   int
		solver core.Solver
		splits bool // the first round must split cells
	}{
		{"sweeping-2d", 2, 300, core.SweepingSolver{}, false},
		{"ept-3d", 3, 150, core.EPTSolver{}, false},
		{"ept-4d", 4, 100, core.EPTSolver{}, false},
		{"ept-slab-4d", 4, 400, core.EPTSolver{}, true},
		{"brute-2d", 2, 60, core.BruteForceSolver{}, false},
		{"brute-3d", 3, 30, core.BruteForceSolver{}, false},
		// A-PC's partitions keep their constraints' normals, merged or cut.
		{"apc-merged-3d", 3, 150, core.APCSolver{Opt: core.APCOptions{Samples: 40, Seed: 3}}, false},
		{"apc-cut-4d", 4, 100, core.APCSolver{Opt: core.APCOptions{Samples: 60, Seed: 3, MaxSamples: 30}}, false},
		// LP-CTA's cells are clipped from the served planes' normals.
		{"lpcta-2d", 2, 60, baseline.LPCTASolver{}, false},
		{"lpcta-3d", 3, 30, baseline.LPCTASolver{}, false},
	}
	for ci, tc := range cases {
		pts := dataset.Generate(dataset.Independent, tc.n, tc.d, int64(ci)+5)
		storeless, err := core.Prepare(pts, tc.d, false)
		if err != nil {
			t.Fatal(err)
		}
		preps := []struct {
			name string
			prep *core.Prepared
		}{
			{"counted", core.PrepareCounted(pts, tc.d, skyband.DominatorCounts(pts), nil)},
			{"storeless", storeless},
		}
		for _, p := range preps {
			prep := p.prep
			t.Run(fmt.Sprintf("%s/%s", tc.name, p.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ci) * 101))
				queries := core.CompetitiveQueries(rng, pts, 64)
				pol := core.SolvePolicy{Solver: tc.solver}
				ctx := context.Background()
				solve := func(q core.Query, i int) (*core.Region, core.Stats, error) { return pol.Solve(ctx, prep, q, i) }
				_, ept := tc.solver.(core.EPTSolver)
				if ept {
					a := new(core.Arena)
					solve = func(q core.Query, _ int) (*core.Region, core.Stats, error) {
						return core.SolveEPTIn(ctx, prep, q, a)
					}
					for i, q := range queries {
						if _, _, err := solve(q, i); err != nil {
							t.Fatal(err)
						}
					}
				}
				regions := make([]*core.Region, len(queries))
				kept := make([][]byte, len(queries))
				nonEmpty, splits := 0, 0
				for i, q := range queries {
					r, st, err := solve(q, i)
					if err != nil {
						t.Fatalf("query %d: %v", i, err)
					}
					splits += st.Splits
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
				if tc.splits && splits < len(queries) {
					t.Fatalf("%d splits over %d queries; the slab row is vacuous", splits, len(queries))
				}

				more := core.CompetitiveQueries(rng, pts, 32)
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
				if ept {
					for j, q := range more {
						if _, _, err := solve(q, j); err != nil {
							t.Fatal(err)
						}
					}
				}

				// A pooled arena's slabs are zeroed when its solve returns,
				// so a cell aliasing them reads as a cell without vertices
				// even before a later solve overwrites it.
				changed, hollow := 0, 0
				for i, r := range regions {
					b, err := r.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(b, kept[i]) {
						changed++
					}
					for _, c := range r.Cells() {
						if c.NumVertices() < tc.d || !r.Contains(c.Center()) {
							hollow++
							break
						}
					}
				}
				if changed > 0 || hollow > 0 {
					t.Fatalf("of %d kept regions, %d changed after later solves and %d hold a cell without its vertices: a region aliases pooled scratch", len(regions), changed, hollow)
				}
			})
		}
	}
}

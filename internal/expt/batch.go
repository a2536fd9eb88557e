package expt

// The batch experiment measures the parallel batch-query engine: one shared
// core.Prepared (with the k-skyband prefilter) serving a fixed query set
// through worker pools of increasing width. It is an extension beyond the
// paper's figures — the paper times queries one at a time — and quantifies
// the serving-path scaling of the refactored solver stack.

import (
	"fmt"
	"math/rand"
	"time"

	"rrq/internal/core"
	"rrq/internal/dataset"
)

func init() {
	Registry["batch"] = Batch
}

// batchQueries is the fixed number of queries per batch run.
const batchQueries = 64

// Batch times SolveBatch with E-PT on the default 4-d Independent workload
// for worker counts {1, 4, 8} (or just Scale.Workers when set), reporting
// mean per-query time and the speedup over the single-worker run.
func Batch(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	pts := sc.synthetic(dataset.Independent, sc.size(), defaultDim)
	prep, err := core.Prepare(pts, defaultDim, true)
	if err != nil {
		panic(err)
	}
	queries := make([]core.Query, batchQueries)
	for i := range queries {
		queries[i] = core.Query{Q: dataset.RandQuery(rng, pts), K: defaultK, Eps: defaultEps}
	}
	// Warm the skyband cache so the first row is not charged for the shared
	// preprocessing (the paper's protocol excludes preprocessing as well).
	prep.PointsFor(defaultK)

	workerCounts := []int{1, 4, 8}
	if sc.Workers > 0 {
		workerCounts = []int{sc.Workers}
	}

	t := &Table{ID: "batch", Title: "Batch-query engine scaling (E-PT, 4-d Indep, 64 queries)", ParamCol: "workers"}
	solver := core.EPTSolver{}
	base := 0.0
	for _, w := range workerCounts {
		ctx, cancel := cellCtx(sc)
		start := time.Now()
		outs := core.SolveBatchPolicy(ctx, core.SolvePolicy{Solver: solver}, prep, queries, w)
		total := time.Since(start).Seconds()
		cancel()
		var failed error
		for _, o := range outs {
			if o.Err != nil {
				failed = o.Err
				break
			}
		}
		row := Row{Param: fmt.Sprintf("%d", w)}
		if failed != nil {
			row.Cells = []Cell{cellOrSkip("E-PT batch", 0, failed)}
		} else {
			row.Cells = []Cell{{Algo: "E-PT batch", Seconds: total / batchQueries}}
			if base == 0 {
				base = total
			}
			row.Extra = map[string]float64{"speedup": base / total}
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

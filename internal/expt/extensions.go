package expt

// Extension experiments beyond the paper's figures: the E-PT acceleration
// ablation, the dynamic-maintenance comparison (the paper's future work),
// and a sensitivity sweep of the user study's regret threshold.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/index"
	"rrq/internal/study"
	"rrq/internal/vec"
)

func init() {
	Registry["ext-ablation"] = ExtAblation
	Registry["ext-dynamic"] = ExtDynamic
	Registry["ext-study"] = ExtStudy
}

// ExtAblation times E-PT with each §5.1.2 acceleration disabled in turn on
// the default 4-d workload, quantifying the published design choices.
func ExtAblation(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	pts := sc.synthetic(dataset.Independent, sc.size(), defaultDim)
	in := prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
	variants := []struct {
		name string
		opt  core.EPTOptions
	}{
		{"full", core.EPTOptions{}},
		{"no-reduction", core.EPTOptions{NoReduction: true}},
		{"no-ordering", core.EPTOptions{NoOrdering: true}},
		{"no-lazy-split", core.EPTOptions{NoLazySplit: true}},
		{"all-disabled", core.EPTOptions{NoReduction: true, NoOrdering: true, NoLazySplit: true}},
	}
	t := &Table{ID: "ext-ablation", Title: "E-PT acceleration ablation (4-d Indep)", ParamCol: "variant"}
	for _, v := range variants {
		ctx, cancel := cellCtx(sc)
		solver := core.EPTSolver{Opt: v.opt}
		var planes, nodes int
		secs, err := timeIt(in, sc.CellBudget, func(q core.Query) error {
			_, st, e := solver.Solve(ctx, in.prep, q)
			planes, nodes = st.PlanesInserted, st.NodesCreated
			return e
		})
		cancel()
		row := Row{Param: v.name, Cells: []Cell{cellOrSkip("E-PT", secs, err)}}
		if err == nil {
			row.Extra = map[string]float64{
				"planes": float64(planes),
				"nodes":  float64(nodes),
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// ExtDynamic compares maintaining a region under insertions through the
// snapshot index (delta-maintained preprocessing, solve per epoch) against
// re-solving fully from scratch after every insertion.
func ExtDynamic(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	pts := sc.synthetic(dataset.Independent, sc.size()/10, 3)
	in := prepare(pts, defaultK, defaultEps, 1, rng)
	q := core.Query{Q: in.queries[0], K: in.k, Eps: in.eps}

	t := &Table{ID: "ext-dynamic", Title: "Dynamic maintenance vs re-solve (3-d Indep)", ParamCol: "inserts"}
	for _, inserts := range []int{10, 50, 200} {
		// Fresh inserts drawn per setting, identical for both strategies.
		newPts := make([]vec.Vec, 0, inserts)
		for i := 0; i < inserts; i++ {
			newPts = append(newPts, dataset.RandQuery(rng, pts))
		}

		ix, err := index.Build(in.pts, 3)
		if err != nil {
			panic(err)
		}
		solver := core.EPTSolver{}
		start := time.Now()
		for _, p := range newPts {
			if _, err := ix.Insert(p); err != nil {
				panic(err)
			}
			if _, _, err := solver.Solve(context.Background(), ix.Snapshot().Prepared(), q); err != nil {
				panic(err)
			}
		}
		incSecs := time.Since(start).Seconds()

		cur := append([]vec.Vec(nil), in.pts...)
		start = time.Now()
		var resolveErr error
		ctx, cancel := cellCtx(sc)
		for _, p := range newPts {
			cur = append(cur, p)
			if resolveErr = resolve(ctx, cur, q); resolveErr != nil {
				break
			}
		}
		cancel()
		resSecs := time.Since(start).Seconds()

		row := Row{Param: fmt.Sprintf("%d", inserts), Cells: []Cell{
			{Algo: "Dynamic", Seconds: incSecs},
			cellOrSkip("Re-solve", resSecs, resolveErr),
		}}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// resolve answers q from scratch over pts: a fresh Prepare, then one E-PT
// solve.
func resolve(ctx context.Context, pts []vec.Vec, q core.Query) error {
	prep, err := core.Prepare(pts, q.Q.Dim(), false)
	if err != nil {
		return err
	}
	_, _, err = core.EPTSolver{}.Solve(ctx, prep, q)
	return err
}

// ExtStudy sweeps the user study's regret threshold, showing the interest
// and rank findings of Figure 7 are not an artifact of the 0.1 cut-off.
func ExtStudy(sc Scale) []*Table {
	sc = sc.withDefaults()
	carN := 300
	if sc.Full {
		carN = 1000
	}
	if sc.SizeOverride > 0 {
		carN = sc.SizeOverride
	}
	cars, err := dataset.Real(dataset.Car, carN)
	if err != nil {
		panic(err)
	}
	t := &Table{ID: "ext-study", Title: "User study threshold sensitivity (x = 5)", ParamCol: "threshold"}
	for _, th := range []float64{0.05, 0.1, 0.15} {
		res := study.Run(cars, []int{5}, study.Config{Seed: sc.Seed, Threshold: th})[0]
		t.Rows = append(t.Rows, Row{
			Param: fmt.Sprintf("%.2f", th),
			Extra: map[string]float64{
				"interest%":    100 * res.PercentInterest,
				"avg rank":     res.AvgRank,
				"missed by x%": 100 * res.MissedByTopX,
			},
		})
	}
	return []*Table{t}
}

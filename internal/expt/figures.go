package expt

import (
	"context"
	"fmt"
	"math/rand"

	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/study"
	"rrq/internal/vec"
)

// Default parameters of §6.1: k = 10, ε = 0.1, d = 4, n = 400,000, Indep.
const (
	defaultK   = 10
	defaultEps = 0.1
	defaultDim = 4
)

func (s Scale) kSweep() []int {
	if s.Full {
		return []int{1, 5, 10, 20, 30, 40}
	}
	return []int{1, 5, 10, 20}
}

func (s Scale) epsSweep() []float64 {
	return []float64{0, 0.05, 0.1, 0.15, 0.2}
}

// synthetic builds the default synthetic dataset for the scale.
func (s Scale) synthetic(t dataset.Type, n, d int) []vec.Vec {
	return dataset.Generate(t, n, d, s.Seed)
}

// Fig7 reproduces the user study (Figure 7): percentage of interest and
// average rank of the interesting cars among those with x-regratio < 0.1,
// for x ∈ {1, 5, 10}.
func Fig7(sc Scale) []*Table {
	sc = sc.withDefaults()
	carN := 400
	if sc.Full {
		carN = 2000
	}
	if sc.SizeOverride > 0 {
		carN = sc.SizeOverride
	}
	cars, err := dataset.Real(dataset.Car, carN)
	if err != nil {
		panic(err)
	}
	results := study.Run(cars, []int{1, 5, 10}, study.Config{Seed: sc.Seed})
	t := &Table{ID: "fig7", Title: "User study on Car: interest in small-regret cars", ParamCol: "x"}
	for _, r := range results {
		t.Rows = append(t.Rows, Row{
			Param: fmt.Sprintf("%d", r.X),
			Extra: map[string]float64{
				"interest%":    100 * r.PercentInterest,
				"avg rank":     r.AvgRank,
				"max rank":     float64(r.MaxRank),
				"missed by x%": 100 * r.MissedByTopX,
			},
		})
	}
	return []*Table{t}
}

// apcAccuracy measures A-PC output quality per §6.3: the share of 10,000
// random utility vectors that qualify (per E-PT) and are also covered by
// the A-PC answer.
func apcAccuracy(prep *core.Prepared, q core.Query, samples int, seed int64) (float64, float64) {
	ctx := context.Background()
	exact, _, err := core.EPTSolver{}.Solve(ctx, prep, q)
	if err != nil {
		panic(err)
	}
	apc := core.APCSolver{Opt: core.APCOptions{Samples: samples, Seed: seed}}
	reg, _, err := apc.Solve(ctx, prep, q)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	hit, total := 0, 0
	for i := 0; i < 10000; i++ {
		u := vec.RandSimplex(rng, q.Q.Dim())
		if !exact.Contains(u) {
			continue
		}
		total++
		if reg.Contains(u) {
			hit++
		}
	}
	if total == 0 {
		return 1, 0
	}
	return float64(hit) / float64(total), float64(total)
}

// Fig8a reproduces Figure 8(a): A-PC accuracy versus sample size N on 2-d
// and 4-d independent data.
func Fig8a(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: "fig8a", Title: "A-PC accuracy vs sample size N (Indep)", ParamCol: "N"}
	n := sc.size()
	insts := map[int]instance{}
	for _, d := range []int{2, 4} {
		pts := sc.synthetic(dataset.Independent, n, d)
		insts[d] = prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
	}
	for _, N := range []int{10, 30, 100, 300, 1000} {
		row := Row{Param: fmt.Sprintf("%d", N), Extra: map[string]float64{}}
		for _, d := range []int{2, 4} {
			in := insts[d]
			// Average the accuracy over the query pool: a single query
			// yields a step function (its region is either sampled or
			// missed), while the paper's curve aggregates many queries.
			var sum float64
			for qi, qp := range in.queries {
				q := core.Query{Q: qp, K: in.k, Eps: in.eps}
				acc, _ := apcAccuracy(in.prep, q, N, sc.Seed+int64(qi))
				sum += acc
			}
			row.Extra[fmt.Sprintf("acc d=%d", d)] = sum / float64(len(in.queries))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}
}

// Fig8b reproduces Figure 8(b): A-PC execution time versus sample size N.
func Fig8b(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: "fig8b", Title: "A-PC time vs sample size N (Indep)", ParamCol: "N"}
	pts := sc.synthetic(dataset.Independent, sc.size(), defaultDim)
	in := prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
	for _, N := range []int{10, 30, 100, 300, 1000} {
		secs, err := timeSolver(in, core.APCSolver{Opt: core.APCOptions{Samples: N, Seed: 1}}, sc)
		t.Rows = append(t.Rows, Row{
			Param: fmt.Sprintf("%d", N),
			Cells: []Cell{cellOrSkip("A-PC", secs, err)},
		})
	}
	return []*Table{t}
}

// sweepK builds a vary-k table on the given points.
func sweepK(sc Scale, id, title string, pts []vec.Vec, algos algoSet) *Table {
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: id, Title: title, ParamCol: "k"}
	for _, k := range sc.kSweep() {
		in := prepare(pts, k, defaultEps, sc.Repeats, rng)
		t.Rows = append(t.Rows, Row{Param: fmt.Sprintf("%d", k), Cells: run(in, algos, sc)})
	}
	return t
}

// sweepEps builds a vary-ε table on the given points.
func sweepEps(sc Scale, id, title string, pts []vec.Vec, algos algoSet) *Table {
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: id, Title: title, ParamCol: "eps"}
	for _, eps := range sc.epsSweep() {
		in := prepare(pts, defaultK, eps, sc.Repeats, rng)
		t.Rows = append(t.Rows, Row{Param: fmt.Sprintf("%.2f", eps), Cells: run(in, algos, sc)})
	}
	return t
}

// Fig9a / Fig9b: the 2-d synthetic comparison (Figure 9).
func Fig9a(sc Scale) []*Table {
	sc = sc.withDefaults()
	pts := sc.synthetic(dataset.Independent, sc.size(), 2)
	return []*Table{sweepK(sc, "fig9a", "2-d Indep, vary k", pts,
		algoSet{sweeping: true, ept: true, apc: true, lpcta: true, pba: true})}
}

func Fig9b(sc Scale) []*Table {
	sc = sc.withDefaults()
	pts := sc.synthetic(dataset.Independent, sc.size(), 2)
	return []*Table{sweepEps(sc, "fig9b", "2-d Indep, vary eps", pts,
		algoSet{sweeping: true, ept: true, apc: true, lpcta: true, pba: true})}
}

// Fig10a / Fig10b: the 4-d synthetic comparison (Figure 10).
func Fig10a(sc Scale) []*Table {
	sc = sc.withDefaults()
	pts := sc.synthetic(dataset.Independent, sc.size(), defaultDim)
	return []*Table{sweepK(sc, "fig10a", "4-d Indep, vary k", pts,
		algoSet{ept: true, apc: true, lpcta: true, pba: true})}
}

func Fig10b(sc Scale) []*Table {
	sc = sc.withDefaults()
	pts := sc.synthetic(dataset.Independent, sc.size(), defaultDim)
	return []*Table{sweepEps(sc, "fig10b", "4-d Indep, vary eps", pts,
		algoSet{ept: true, apc: true, lpcta: true, pba: true})}
}

// Fig11: scalability in the dimension d (Figure 11).
func Fig11(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: "fig11", Title: "Indep, vary dimension d", ParamCol: "d"}
	for _, d := range []int{2, 3, 4, 5} {
		pts := sc.synthetic(dataset.Independent, sc.size(), d)
		in := prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
		algos := algoSet{ept: true, apc: true, lpcta: true, pba: true}
		if d == 2 {
			algos.sweeping = true
		}
		t.Rows = append(t.Rows, Row{Param: fmt.Sprintf("%d", d), Cells: run(in, algos, sc)})
	}
	return []*Table{t}
}

// Fig12: scalability in the dataset size n (Figure 12).
func Fig12(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	sizes := []int{5_000, 10_000, 20_000, 40_000}
	if sc.Full {
		sizes = []int{100_000, 200_000, 400_000, 800_000}
	}
	if sc.SizeOverride > 0 {
		sizes = []int{sc.SizeOverride, 2 * sc.SizeOverride}
	}
	t := &Table{ID: "fig12", Title: "4-d Indep, vary dataset size n", ParamCol: "n"}
	for _, n := range sizes {
		pts := sc.synthetic(dataset.Independent, n, defaultDim)
		in := prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
		t.Rows = append(t.Rows, Row{
			Param: fmt.Sprintf("%d", n),
			Cells: run(in, algoSet{ept: true, apc: true, lpcta: true, pba: true}, sc),
		})
	}
	return []*Table{t}
}

// Fig13: the three data distributions (Figure 13).
func Fig13(sc Scale) []*Table {
	sc = sc.withDefaults()
	rng := rand.New(rand.NewSource(sc.Seed))
	t := &Table{ID: "fig13", Title: "4-d, vary dataset type", ParamCol: "type"}
	for _, typ := range []dataset.Type{dataset.Anticorrelated, dataset.Correlated, dataset.Independent} {
		pts := sc.synthetic(typ, sc.size(), defaultDim)
		in := prepare(pts, defaultK, defaultEps, sc.Repeats, rng)
		t.Rows = append(t.Rows, Row{
			Param: typ.String(),
			Cells: run(in, algoSet{ept: true, apc: true, lpcta: true, pba: true}, sc),
		})
	}
	return []*Table{t}
}

// realFigure builds the vary-k and vary-ε tables for one real dataset
// (Figures 14–17).
func realFigure(sc Scale, id string, name dataset.RealName) []*Table {
	sc = sc.withDefaults()
	maxN := 0
	if !sc.Full {
		maxN = 10_000
	}
	if sc.SizeOverride > 0 {
		maxN = sc.SizeOverride
	}
	pts, err := dataset.Real(name, maxN)
	if err != nil {
		panic(err)
	}
	d := pts[0].Dim()
	algos := algoSet{ept: true, apc: true, lpcta: true, pba: true}
	if d == 2 {
		algos.sweeping = true
	}
	return []*Table{
		sweepK(sc, id+"-k", fmt.Sprintf("%s (d=%d), vary k", name, d), pts, algos),
		sweepEps(sc, id+"-eps", fmt.Sprintf("%s (d=%d), vary eps", name, d), pts, algos),
	}
}

// Fig14 – Fig17: the four real datasets.
func Fig14(sc Scale) []*Table { return realFigure(sc, "fig14", dataset.Island) }
func Fig15(sc Scale) []*Table { return realFigure(sc, "fig15", dataset.Weather) }
func Fig16(sc Scale) []*Table { return realFigure(sc, "fig16", dataset.Car) }
func Fig17(sc Scale) []*Table { return realFigure(sc, "fig17", dataset.NBA) }

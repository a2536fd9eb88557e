package rrq

// Benchmarks: one testing.B benchmark per evaluation figure of the paper
// (Figures 7–17), at scaled-down parameters so `go test -bench=.` exercises
// the full harness quickly. cmd/rrqbench runs the same experiments at quick
// or paper scale and prints the plotted series.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/expt"
	"rrq/internal/index"
	"rrq/internal/skyband"
	"rrq/internal/study"
	"rrq/internal/vec"
)

// benchInstance prepares a skyband-pruned workload with a competitive
// query: a perturbed skyband point, following the harness protocol (a
// dominated query short-circuits every solver and benchmarks nothing).
func benchInstance(b *testing.B, typ dataset.Type, n, d, k int, eps float64) ([]vec.Vec, core.Query) {
	b.Helper()
	pts := dataset.Generate(typ, n, d, 42)
	return benchQuery(pts, k, eps)
}

func benchReal(b *testing.B, name dataset.RealName, maxN, k int, eps float64) ([]vec.Vec, core.Query) {
	b.Helper()
	pts, err := dataset.Real(name, maxN)
	if err != nil {
		b.Fatal(err)
	}
	return benchQuery(pts, k, eps)
}

func benchQuery(pts []vec.Vec, k int, eps float64) ([]vec.Vec, core.Query) {
	band := skyband.Select(pts, skyband.KSkyband(pts, k))
	rng := rand.New(rand.NewSource(7))
	q := core.Query{Q: dataset.RandQuery(rng, band), K: k, Eps: eps}
	return band, q
}

// BenchmarkFig07UserStudy: the §6.2 user study pipeline.
func BenchmarkFig07UserStudy(b *testing.B) {
	cars, err := dataset.Real(dataset.Car, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study.Run(cars, []int{1, 5, 10}, study.Config{Seed: 1, Participants: 5, LearnRounds: 6})
	}
}

// BenchmarkFig08APCSamples: A-PC cost versus the sample size N (Fig 8b; the
// accuracy series of Fig 8a is produced by cmd/rrqbench -exp fig8a).
func BenchmarkFig08APCSamples(b *testing.B) {
	pts, q := benchInstance(b, dataset.Independent, 20000, 4, 10, 0.1)
	for _, N := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("N=%d", N), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.APC(pts, q, core.APCOptions{Samples: N, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchAlgos runs the standard per-figure algorithm set. skipLPCTA exists
// for the anti-correlated workloads, where LP-CTA runs past any sensible
// benchmark time (the paper reports 974.8 s for it there).
func benchAlgos(b *testing.B, pts []vec.Vec, q core.Query, sweeping bool, skipLPCTA ...bool) {
	if sweeping {
		b.Run("Sweeping", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Sweeping(pts, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("E-PT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EPT(pts, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("A-PC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.APC(pts, q, core.APCOptions{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if len(skipLPCTA) > 0 && skipLPCTA[0] {
		return
	}
	b.Run("LP-CTA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.LPCTA(pts, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig09a2DVaryK: 2-d synthetic, vary k (Figure 9a).
func BenchmarkFig09a2DVaryK(b *testing.B) {
	for _, k := range []int{1, 10, 40} {
		pts, q := benchInstance(b, dataset.Independent, 20000, 2, k, 0.1)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchAlgos(b, pts, q, true)
		})
	}
}

// BenchmarkFig09b2DVaryEps: 2-d synthetic, vary ε (Figure 9b).
func BenchmarkFig09b2DVaryEps(b *testing.B) {
	for _, eps := range []float64{0, 0.1, 0.2} {
		pts, q := benchInstance(b, dataset.Independent, 20000, 2, 10, eps)
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			benchAlgos(b, pts, q, true)
		})
	}
}

// BenchmarkFig10a4DVaryK: 4-d synthetic, vary k (Figure 10a).
func BenchmarkFig10a4DVaryK(b *testing.B) {
	for _, k := range []int{1, 5, 10} {
		pts, q := benchInstance(b, dataset.Independent, 20000, 4, k, 0.1)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			benchAlgos(b, pts, q, false)
		})
	}
}

// BenchmarkFig10b4DVaryEps: 4-d synthetic, vary ε (Figure 10b).
func BenchmarkFig10b4DVaryEps(b *testing.B) {
	for _, eps := range []float64{0, 0.1, 0.2} {
		pts, q := benchInstance(b, dataset.Independent, 20000, 4, 5, eps)
		b.Run(fmt.Sprintf("eps=%.2f", eps), func(b *testing.B) {
			benchAlgos(b, pts, q, false)
		})
	}
}

// BenchmarkFig11VaryD: scalability in d (Figure 11).
func BenchmarkFig11VaryD(b *testing.B) {
	for _, d := range []int{2, 3, 4, 5} {
		pts, q := benchInstance(b, dataset.Independent, 20000, d, 5, 0.1)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			// LP-CTA at d = 5 runs past any benchmark time (cf. fig11).
			benchAlgos(b, pts, q, d == 2, d >= 5)
		})
	}
}

// BenchmarkFig12VaryN: scalability in n (Figure 12).
func BenchmarkFig12VaryN(b *testing.B) {
	for _, n := range []int{5000, 20000, 80000} {
		pts, q := benchInstance(b, dataset.Independent, n, 4, 5, 0.1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchAlgos(b, pts, q, false)
		})
	}
}

// BenchmarkFig13VaryType: the three data distributions (Figure 13).
func BenchmarkFig13VaryType(b *testing.B) {
	for _, typ := range []dataset.Type{dataset.Anticorrelated, dataset.Correlated, dataset.Independent} {
		pts, q := benchInstance(b, typ, 20000, 4, 5, 0.1)
		b.Run(typ.String(), func(b *testing.B) {
			benchAlgos(b, pts, q, false, typ == dataset.Anticorrelated)
		})
	}
}

// BenchmarkFig14Island – BenchmarkFig17NBA: the four real datasets
// (Figures 14–17) at their default k = 10, ε = 0.1 settings.
func BenchmarkFig14Island(b *testing.B) {
	pts, q := benchReal(b, dataset.Island, 10000, 10, 0.1)
	benchAlgos(b, pts, q, true)
}

func BenchmarkFig15Weather(b *testing.B) {
	pts, q := benchReal(b, dataset.Weather, 10000, 10, 0.1)
	benchAlgos(b, pts, q, false)
}

func BenchmarkFig16Car(b *testing.B) {
	pts, q := benchReal(b, dataset.Car, 10000, 10, 0.1)
	benchAlgos(b, pts, q, false)
}

func BenchmarkFig17NBA(b *testing.B) {
	pts, q := benchReal(b, dataset.NBA, 10000, 5, 0.1)
	benchAlgos(b, pts, q, false)
}

// BenchmarkPBAPreprocessAndQuery measures the PBA+ split the paper
// describes: expensive preprocessing, cheap-ish queries.
func BenchmarkPBAPreprocessAndQuery(b *testing.B) {
	pts, q := benchInstance(b, dataset.Independent, 5000, 3, 3, 0.1)
	b.Run("preprocess", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.BuildPBA(pts, q.K, 500000); err != nil {
				b.Fatal(err)
			}
		}
	})
	ix, err := baseline.BuildPBA(pts, q.K, 500000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationEPT quantifies the contribution of E-PT's published
// accelerations by comparing the full solver against LP-CTA (which shares
// the tree strategy but lacks all four accelerations) and against the raw
// arrangement construction.
func BenchmarkAblationEPT(b *testing.B) {
	pts, q := benchInstance(b, dataset.Independent, 10000, 3, 5, 0.1)
	b.Run("full-EPT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.EPT(pts, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("no-accelerations-LPCTA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.LPCTA(pts, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, v := range []struct {
		name string
		opt  core.EPTOptions
	}{
		{"no-reduction", core.EPTOptions{NoReduction: true}},
		{"no-ordering", core.EPTOptions{NoOrdering: true}},
		{"no-lazy-split", core.EPTOptions{NoLazySplit: true}},
	} {
		opt := v.opt
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.EPTWithOptions(pts, q, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSkybandPreprocess measures the dataset preprocessing cost that
// every reverse-query system shares.
func BenchmarkSkybandPreprocess(b *testing.B) {
	pts := dataset.Generate(dataset.Independent, 100000, 4, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyband.KSkyband(pts, 10)
	}
}

// BenchmarkHarnessQuickFigure exercises one full expt harness figure.
func BenchmarkHarnessQuickFigure(b *testing.B) {
	sc := expt.Scale{Seed: 1, Repeats: 1, PBABudget: 1}
	for i := 0; i < b.N; i++ {
		expt.Fig8b(sc)
	}
}

// BenchmarkDynamicInsert measures incremental maintenance (the paper's
// future-work extension) against re-solving per insertion.
func BenchmarkDynamicInsert(b *testing.B) {
	pts, q := benchInstance(b, dataset.Independent, 5000, 3, 5, 0.1)
	b.Run("incremental", func(b *testing.B) {
		ix, err := index.Build(pts, 3)
		if err != nil {
			b.Fatal(err)
		}
		extra := dataset.Generate(dataset.Independent, b.N, 3, 99)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Insert(extra[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("re-solve", func(b *testing.B) {
		cur := append([]vec.Vec(nil), pts...)
		extra := dataset.Generate(dataset.Independent, b.N, 3, 99)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur = append(cur, extra[i])
			if _, err := core.EPT(cur, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShareProfile measures the one-pass market-share curve.
func BenchmarkShareProfile(b *testing.B) {
	pts, q := benchInstance(b, dataset.Independent, 20000, 4, 10, 0.1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewShareProfile(pts, q, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveBatch measures the parallel batch-query engine: one shared
// Prepared (Indep, n = 10k, d = 4) serving 64 E-PT queries through worker
// pools of increasing width.
func BenchmarkSolveBatch(b *testing.B) {
	pts := dataset.Generate(dataset.Independent, 10000, 4, 42)
	prep, err := core.Prepare(pts, 4, true)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	queries := make([]core.Query, 64)
	for i := range queries {
		queries[i] = core.Query{Q: dataset.RandQuery(rng, pts), K: 10, Eps: 0.1}
	}
	prep.PointsFor(10) // warm the skyband cache outside the timed region
	ctx := context.Background()
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				outs := core.SolveBatchPolicy(ctx, core.SolvePolicy{Solver: core.EPTSolver{}}, prep, queries, workers)
				for _, o := range outs {
					if o.Err != nil {
						b.Fatal(o.Err)
					}
				}
			}
		})
	}
}

package rrq

// Benchmarks of the pieces no evaluation figure isolates: PBA+'s
// preprocessing/query split, the skyband pass, incremental maintenance and
// the market-share curve. The paper's figures have one harness each, in
// internal/expt, run by cmd/rrqbench at quick or paper scale.

import (
	"context"
	"math/rand"
	"testing"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/index"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// benchInstance prepares a skyband-pruned Indep workload with a
// competitive query: a perturbed skyband point, following the harness
// protocol (a dominated query short-circuits every solver and benchmarks
// nothing).
func benchInstance(n, d, k int, eps float64) ([]vec.Vec, core.Query) {
	pts := dataset.Generate(dataset.Independent, n, d, 42)
	band := skyband.Select(pts, skyband.KSkyband(pts, k))
	rng := rand.New(rand.NewSource(7))
	return band, core.Query{Q: dataset.RandQuery(rng, band), K: k, Eps: eps}
}

// BenchmarkPBAPreprocessAndQuery measures the PBA+ split the paper
// describes: expensive preprocessing, cheap-ish queries.
func BenchmarkPBAPreprocessAndQuery(b *testing.B) {
	pts, q := benchInstance(5000, 3, 3, 0.1)
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
			if _, err := ix.QueryContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	})
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

// BenchmarkDynamicInsert measures incremental maintenance (the paper's
// future-work extension) against re-solving per insertion.
func BenchmarkDynamicInsert(b *testing.B) {
	pts, q := benchInstance(5000, 3, 5, 0.1)
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
			prep, err := core.Prepare(cur, 3, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := (core.EPTSolver{}).Solve(context.Background(), prep, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShareProfile measures the one-pass market-share curve.
func BenchmarkShareProfile(b *testing.B) {
	pts, q := benchInstance(20000, 4, 10, 0.1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewShareProfile(pts, q, 2000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

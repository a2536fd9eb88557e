package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
)

// eptBenchInstance prepares a skyband-pruned Indep instance with a
// competitive query — a perturbed band point, the protocol of the root
// package's benchmarks — on which E-PT really refines its tree: a query
// whose region is empty or whole makes no split and times plane building
// alone, so the benchmark fails instead of measuring that.
func eptBenchInstance(b *testing.B, n, d int) (*Prepared, Query, Stats) {
	const k = 5
	pts := dataset.Generate(dataset.Independent, n, d, 42)
	band := skyband.Select(pts, skyband.KSkyband(pts, k))
	prep, err := Prepare(band, d, false)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for try := 0; try < 64; try++ {
		q := Query{Q: dataset.RandQuery(rng, band), K: k, Eps: 0.1}
		_, st, err := EPTSolver{}.Solve(context.Background(), prep, q)
		if err != nil {
			b.Fatal(err)
		}
		if st.Splits > 0 && st.Pieces > 0 {
			return prep, q, st
		}
	}
	b.Fatalf("n=%d d=%d: no query in 64 makes E-PT split", n, d)
	return nil, Query{}, Stats{}
}

// BenchmarkEPTSerial times one serial E-PT solve on a prepared instance and
// pins its allocation profile.
func BenchmarkEPTSerial(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		prep, q, st := eptBenchInstance(b, 2000, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportMetric(float64(st.Splits), "splits/op")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := (EPTSolver{}).Solve(context.Background(), prep, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

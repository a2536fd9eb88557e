package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// benchInstance builds a deterministic anticorrelated-ish instance that
// produces a partition tree deep enough to exercise the split kernels.
func benchInstance(n, d int) ([]vec.Vec, Query) {
	rng := rand.New(rand.NewSource(77))
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.05 + 0.95*rng.Float64()
		}
		pts[i] = p
	}
	q := pts[0].Clone()
	for j := range q {
		q[j] = 0.3 + 0.4*q[j]
	}
	return pts, Query{Q: q, K: 4, Eps: 0.1}
}

// BenchmarkEPTSerial pins the allocation profile of the serial solver.
func BenchmarkEPTSerial(b *testing.B) {
	for _, d := range []int{3, 4, 5} {
		pts, q := benchInstance(300, d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := solveOn(context.Background(), EPTSolver{}, pts, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEPTParallel sweeps the intra-query worker count on the higher
// dimensions, where insertions cross enough subtrees to feed the pool.
// Workers=1 takes the serial path and doubles as the in-sweep baseline.
func BenchmarkEPTParallel(b *testing.B) {
	for _, d := range []int{4, 5} {
		pts, q := benchInstance(300, d)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("d=%d/workers=%d", d, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{Workers: workers}}, pts, q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

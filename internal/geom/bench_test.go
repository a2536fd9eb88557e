package geom

import (
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

func randPlanes(n, d int, seed int64) []Hyperplane {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Hyperplane, 0, n)
	for len(out) < n {
		w := vec.New(d)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if w.Norm() < 1e-6 {
			continue
		}
		out = append(out, NewHyperplane(w, len(out)))
	}
	return out
}

func benchCell(d int, cuts int) *Cell {
	cell := NewSimplex(d)
	for _, h := range randPlanes(cuts, d, 9) {
		if cell.Relation(h) != RelCross {
			continue
		}
		_, pos := cell.Split(h)
		if pos != nil {
			cell = pos
		}
	}
	return cell
}

func BenchmarkRelation(b *testing.B) {
	for _, d := range []int{3, 5} {
		cell := benchCell(d, 6)
		planes := randPlanes(64, d, 11)
		b.Run(map[int]string{3: "d=3", 5: "d=5"}[d], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cell.Relation(planes[i%len(planes)])
			}
		})
	}
}

func BenchmarkSplit(b *testing.B) {
	cell := benchCell(4, 5)
	var crossing []Hyperplane
	for _, h := range randPlanes(256, 4, 13) {
		if cell.Relation(h) == RelCross {
			crossing = append(crossing, h)
		}
	}
	if len(crossing) == 0 {
		b.Skip("no crossing planes")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Split(crossing[i%len(crossing)])
	}
}

func BenchmarkContains(b *testing.B) {
	cell := benchCell(4, 8)
	u := vec.SimplexCenter(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.Contains(u)
	}
}

func BenchmarkMeasureCells(b *testing.B) {
	cell := benchCell(4, 6)
	rng := rand.New(rand.NewSource(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MeasureCells([]*Cell{cell}, cell.Dim(), rng, 1000)
	}
}

package geom

import (
	"math"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// TestMeasureCellsSeededReproducible: generators of equal seeds must give
// bit-identical estimates — the property Region.MeasureWithSeed rests on —
// and different seeds should (and here do) give different noise.
func TestMeasureCellsSeededReproducible(t *testing.T) {
	seeded := func(cells []*Cell, d int, seed int64) float64 {
		return MeasureCells(cells, d, rand.New(rand.NewSource(seed)), 4000)
	}
	for d := 2; d <= 5; d++ {
		n := vec.New(d)
		for j := range n {
			n[j] = math.Cos(float64(j*d + 1))
		}
		cell := NewSimplex(d).Clip(NewHyperplane(n, 0), +1)
		if cell == nil {
			cell = NewSimplex(d)
		}
		cells := []*Cell{cell}

		a := seeded(cells, d, 42)
		if b := seeded(cells, d, 42); a != b {
			t.Fatalf("d=%d: same seed gave %v and %v", d, a, b)
		}
		if c := seeded(cells, d, 43); a == c && a != 0 && a != 1 {
			t.Errorf("d=%d: different seeds gave identical nontrivial estimates %v", d, a)
		}
	}
}

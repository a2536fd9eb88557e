package geom

import (
	"math"
	"math/rand"
	"sort"

	"rrq/internal/vec"
)

// MeasureCells estimates the fraction of the utility simplex covered by the
// union of cells, by Monte-Carlo sampling n uniform simplex points. Cells
// may overlap; overlapping area is counted once.
func MeasureCells(cells []*Cell, d int, rng *rand.Rand, n int) float64 {
	if len(cells) == 0 || n <= 0 {
		return 0
	}
	hit := 0
	for i := 0; i < n; i++ {
		u := vec.RandSimplex(rng, d)
		for _, c := range cells {
			if c.Contains(u) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(n)
}

// Area3D computes, for a 3-dimensional cell (a convex polygon embedded in
// the plane u1+u2+u3 = 1), its area relative to the whole simplex triangle.
// The polygon's maintained extreme points are ordered by angle around the
// centroid inside the plane and fan-triangulated; extra non-extreme points
// kept by degenerate cuts are harmless because they lie on the hull.
// It panics when the cell dimension is not 3.
func Area3D(c *Cell) float64 {
	if c.Dim() != 3 {
		panic("geom: Area3D on non-3d cell")
	}
	verts := c.Vertices()
	if len(verts) < 3 {
		return 0
	}
	// Orthonormal basis of the plane's tangent space.
	e1 := vec.Of(1, -1, 0).Unit()
	e2 := vec.Of(1, 1, -2).Unit()
	ctr := c.Center()
	type pt struct {
		x, y, ang float64
	}
	ps := make([]pt, len(verts))
	for i, v := range verts {
		d := v.Sub(ctr)
		x, y := d.Dot(e1), d.Dot(e2)
		ps[i] = pt{x, y, math.Atan2(y, x)}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].ang < ps[b].ang })
	var area float64
	for i := range ps {
		j := (i + 1) % len(ps)
		area += ps[i].x*ps[j].y - ps[j].x*ps[i].y
	}
	area = math.Abs(area) / 2
	// The whole simplex triangle has side √2: area = √3/2.
	return area / (math.Sqrt(3) / 2)
}

// MeasureCellsExact3D sums Area3D over non-overlapping cells. Callers must
// guarantee disjointness (true for the partitions produced by the exact
// solvers).
func MeasureCellsExact3D(cells []*Cell) float64 {
	var s float64
	for _, c := range cells {
		s += Area3D(c)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Interval1D extracts, for a 2-dimensional cell, the parameter interval
// [lo, hi] it occupies on the utility segment u = (t, 1−t), t ∈ [0, 1].
// It panics when the cell dimension is not 2.
func Interval1D(c *Cell) (lo, hi float64) {
	if c.Dim() != 2 {
		panic("geom: Interval1D on non-2d cell")
	}
	lo, hi = 1, 0
	for i := 0; i < c.nv; i++ {
		t := c.pts[i*c.dim]
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return lo, hi
}

package core

import (
	"math/rand"
	"sort"

	"rrq/internal/geom"
	"rrq/internal/vec"
)

// Region is the answer to a reverse regret query: the set of qualified
// partitions of the utility simplex. Solvers produce either a list of
// convex cells (general dimension) or a list of parameter intervals on the
// utility segment (the d = 2 fast path used by Sweeping); both support
// membership tests and measure.
type Region struct {
	dim       int
	cells     []*geom.Cell
	disjoint  bool         // cells are pairwise disjoint (exact solvers)
	intervals [][2]float64 // 2-d representation: u = (t, 1−t), sorted, disjoint
}

// NewCellRegion wraps a list of qualified cells into a Region. It is used
// by the solvers in this package and by the adapted baselines. The cells
// may overlap (A-PC's merged partitions can); use NewDisjointCellRegion
// when they are known to partition the answer.
func NewCellRegion(d int, cells []*geom.Cell) *Region {
	return &Region{dim: d, cells: cells}
}

// NewDisjointCellRegion wraps pairwise-disjoint qualified cells, enabling
// exact measure in three dimensions.
func NewDisjointCellRegion(d int, cells []*geom.Cell) *Region {
	return &Region{dim: d, cells: cells, disjoint: true}
}

// NewIntervalRegion wraps sorted disjoint parameter intervals on the 2-d
// utility segment into a Region.
func NewIntervalRegion(intervals [][2]float64) *Region {
	return &Region{dim: 2, intervals: intervals}
}

// EmptyRegion is the empty answer in dimension d.
func EmptyRegion(d int) *Region { return &Region{dim: d} }

// Dim returns the ambient dimension d.
func (r *Region) Dim() int { return r.dim }

// Empty reports whether no utility vector qualifies.
func (r *Region) Empty() bool { return len(r.cells) == 0 && len(r.intervals) == 0 }

// NumPieces returns the number of stored partitions (cells or intervals).
func (r *Region) NumPieces() int {
	if r.intervals != nil {
		return len(r.intervals)
	}
	return len(r.cells)
}

// Cells returns the qualified cells for cell-backed regions and nil for
// interval-backed ones.
func (r *Region) Cells() []*geom.Cell { return r.cells }

// Contains reports whether the utility vector u (assumed on the simplex)
// qualifies: q is a (k,ε)-regret point w.r.t. u. Boundaries are inclusive.
func (r *Region) Contains(u vec.Vec) bool {
	if r.intervals != nil {
		t := u[0]
		i := sort.Search(len(r.intervals), func(i int) bool { return r.intervals[i][1] >= t-geom.Tol })
		return i < len(r.intervals) && r.intervals[i][0] <= t+geom.Tol
	}
	for _, c := range r.cells {
		if c.Contains(u) {
			return true
		}
	}
	return false
}

// Intervals returns the region as parameter intervals on the utility
// segment u = (t, 1−t). For cell-backed 2-d regions the intervals are
// derived from the cells and merged; it panics when dim != 2.
func (r *Region) Intervals() [][2]float64 {
	if r.dim != 2 {
		panic("core: Intervals on a region with dim != 2")
	}
	if r.intervals != nil {
		return r.intervals
	}
	ivs := make([][2]float64, 0, len(r.cells))
	for _, c := range r.cells {
		lo, hi := geom.Interval1D(c)
		ivs = append(ivs, [2]float64{lo, hi})
	}
	return MergeIntervals(ivs)
}

// Measure estimates the fraction of the utility space that qualifies.
// Interval-backed regions and disjoint 3-d cell regions are measured
// exactly; other cell-backed regions use Monte-Carlo sampling with n points
// from rng.
func (r *Region) Measure(rng *rand.Rand, n int) float64 {
	if r.intervals != nil {
		var s float64
		for _, iv := range r.intervals {
			s += iv[1] - iv[0]
		}
		return s
	}
	if r.dim == 2 {
		// Cell-backed 2-d regions reduce to merged intervals, so the
		// measure is exact even when cells overlap.
		var s float64
		for _, iv := range r.Intervals() {
			s += iv[1] - iv[0]
		}
		return s
	}
	if r.disjoint && r.dim == 3 {
		return geom.MeasureCellsExact3D(r.cells)
	}
	return geom.MeasureCells(r.cells, r.dim, rng, n)
}

// MeasureWithSeed is Measure with a private generator derived from seed:
// equal seeds and sample counts return the identical estimate, and the call
// leaves no trace on any shared randomness. Accuracy reporting uses it with
// a seed decorrelated from the solver's own sample stream — measuring a
// sampled region with the stream that built it overstates coverage, since
// every qualified solver sample lies in the region by construction.
func (r *Region) MeasureWithSeed(seed int64, n int) float64 {
	return r.Measure(rand.New(rand.NewSource(seed)), n)
}

// SamplePoint returns a qualified utility vector drawn from a random piece
// of the region, or nil when the region is empty.
func (r *Region) SamplePoint(rng *rand.Rand) vec.Vec {
	if r.intervals != nil {
		if len(r.intervals) == 0 {
			return nil
		}
		iv := r.intervals[rng.Intn(len(r.intervals))]
		t := iv[0] + rng.Float64()*(iv[1]-iv[0])
		return vec.Of(t, 1-t)
	}
	if len(r.cells) == 0 {
		return nil
	}
	return r.cells[rng.Intn(len(r.cells))].SamplePoint(rng)
}

// SampleUniform returns a qualified utility vector drawn uniformly over
// the region, via rejection sampling from the uniform simplex distribution.
// After maxTries rejections (the region may be tiny) it falls back to
// SamplePoint, which is in-region but not uniform. Returns nil for an
// empty region.
func (r *Region) SampleUniform(rng *rand.Rand, maxTries int) vec.Vec {
	if r.Empty() {
		return nil
	}
	if maxTries <= 0 {
		maxTries = 1000
	}
	for i := 0; i < maxTries; i++ {
		u := vec.RandSimplex(rng, r.dim)
		if r.Contains(u) {
			return u
		}
	}
	return r.SamplePoint(rng)
}

// MergeIntervals sorts intervals by start and merges overlapping or
// touching ones into maximal disjoint intervals.
func MergeIntervals(ivs [][2]float64) [][2]float64 {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([][2]float64(nil), ivs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a][0] < sorted[b][0] })
	out := [][2]float64{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv[0] <= last[1]+geom.Tol {
			if iv[1] > last[1] {
				last[1] = iv[1]
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

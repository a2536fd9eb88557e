// Package geom implements the computational geometry substrate for the
// reverse regret query: hyper-planes through the origin, convex cells
// (partitions) of the utility simplex with incremental extreme-point
// maintenance, relationship tests between cells and hyper-planes
// (paper Lemmas 5.1, 5.4, 5.5), and Monte-Carlo region measure.
//
// Cells live in slabs (Slab): flat piles of vertex coordinates, tight sets,
// facet pointers, constraint records, plane headers and Cell values. A
// constraint record points at its plane's header, so the records of one
// plane share it. Split, Clip and NewSimplex build into a fresh slab sized
// to their result; a solver that refines many short-lived cells builds them
// into one reused slab with SplitInto and NewSimplexIn, and copies the
// cells it keeps out with Compact before the slab is reset. Compact keeps
// one header and unit normal per distinct plane and drops the split state
// (tight sets and facets): a compacted cell is read-only.
//
// The utility space U is the standard (d−1)-simplex
// {u ∈ R^d : u[i] ≥ 0, Σu[i] = 1}. All cells live inside U. Distances
// used for sphere tests are measured inside the affine hull of U, which is
// why every Hyperplane caches the norm of its normal's tangent-space
// projection.
package geom

import (
	"fmt"
	"math"

	"rrq/internal/vec"
)

// Tol is the geometric tolerance used for side classification.
const Tol = 1e-9

// Side constants for point-vs-plane classification.
const (
	SideNeg = -1 // u·w < 0
	SideOn  = 0  // |u·w| ≤ tol
	SidePos = +1 // u·w > 0
)

// Hyperplane is a hyper-plane through the origin, {u : u·Normal = 0}.
// The positive half-space is {u : u·Normal > 0}. Normal is unit-length.
//
// ID must be unique among all hyper-planes inserted into the same cell
// lineage (arrangement); it feeds the tight-constraint bookkeeping that
// drives edge detection during cuts. Use the index of the source point.
type Hyperplane struct {
	Normal vec.Vec
	ID     int

	tangentNorm float64 // ‖Normal − mean(Normal)·1‖, lazily via New
	offsetMean  float64 // mean(Normal): value of u·Normal when tangent part is 0
}

// NewHyperplane builds a hyper-plane from a (non-zero) normal. The normal
// is stored unit-length so that side tolerances are scale-free. It panics
// on a zero normal; callers must filter degenerate planes (q = (1−ε)p)
// before construction.
func NewHyperplane(normal vec.Vec, id int) Hyperplane {
	unit := vec.New(normal.Dim())
	NormalizeInto(unit, normal)
	return NewUnitHyperplane(unit, id)
}

// NormalizeInto writes normal/‖normal‖ into dst, which must have length
// normal.Dim() and may alias normal to normalize it in place. It panics on
// a zero normal, like NewHyperplane.
func NormalizeInto(dst, normal vec.Vec) {
	n := normal.Norm()
	if n < vec.Eps {
		panic("geom: hyperplane with zero normal")
	}
	s := 1 / n
	for i, x := range normal {
		dst[i] = x * s
	}
}

// NewUnitHyperplane wraps a normal that is already unit-length (as
// NormalizeInto leaves it) without copying it, so the header aliases the
// caller's storage. NewHyperplane ends in it too, so a header rebuilt here
// from a stored unit normal is bit-identical to the one NewHyperplane built.
func NewUnitHyperplane(unit vec.Vec, id int) Hyperplane {
	m := unit.Mean()
	var tn float64
	for _, x := range unit {
		d := x - m
		tn += d * d
	}
	return Hyperplane{
		Normal:      unit,
		ID:          id,
		tangentNorm: math.Sqrt(tn),
		offsetMean:  m,
	}
}

// PackNormals copies the unit normals of planes into flat, stride Dim, in
// slice order, and rebinds each header to its copy. The planes' geometry is
// unchanged (values are copied verbatim); only the storage moves, so the
// relation tests that scan many planes against the same cell walk a single
// cache-friendly block instead of chasing scattered normals. flat must
// hold len(planes)·Dim floats and not overlap the current normals; the
// caller owns the headers, which are rewritten in place, and keeps flat
// unchanged while they are in use — a solver passes a buffer of its
// scratch arena, and Compact copies the normals its answer keeps.
func PackNormals(planes []Hyperplane, flat []float64) {
	if len(planes) == 0 {
		return
	}
	d := planes[0].Normal.Dim()
	for i := range planes {
		dst := vec.Vec(flat[i*d : (i+1)*d : (i+1)*d])
		copy(dst, planes[i].Normal)
		planes[i].Normal = dst
	}
}

// Eval returns u·Normal, the signed (scaled) offset of u from the plane.
func (h Hyperplane) Eval(u vec.Vec) float64 { return u.Dot(h.Normal) }

// Side classifies u against the plane with tolerance Tol.
func (h Hyperplane) Side(u vec.Vec) int { return vec.Sign(h.Eval(u), Tol) }

// ParallelToHull reports whether the plane is parallel to the affine hull
// of the simplex (its tangent projection vanishes). Such a plane does not
// intersect U: every simplex point evaluates to offsetMean.
func (h Hyperplane) ParallelToHull() bool { return h.tangentNorm < vec.Eps }

// HullSide returns the side of the whole utility space for a plane that is
// parallel to the hull.
func (h Hyperplane) HullSide() int { return vec.Sign(h.offsetMean, Tol) }

// AffineDist returns the signed Euclidean distance, measured inside the
// affine hull of the simplex, from a point c (with Σc = 1) to the plane.
// Positive values mean c lies in the positive half-space.
func (h Hyperplane) AffineDist(c vec.Vec) float64 {
	if h.ParallelToHull() {
		if h.offsetMean >= 0 {
			return math.Inf(1)
		}
		return math.Inf(-1)
	}
	return h.Eval(c) / h.tangentNorm
}

func (h Hyperplane) String() string {
	return fmt.Sprintf("h#%d%v", h.ID, h.Normal)
}

// QueryPlane builds the RRQ hyper-plane h_{q,p} with normal q − (1−ε)·p
// (paper §3.2). ok is false when the normal is numerically zero, i.e.
// q = (1−ε)p; such a plane puts every utility vector on its boundary.
//
// Contract (system-wide): a filtered plane contributes 0 to the
// <k negative-half-space tally of Lemma 3.5, i.e. it is "never negative" —
// the boundary itself is not inside the open negative half-space. Every
// layer observes this. In internal/core one function, classifyPlane,
// drops it together with every plane whose normal is ≥ 0 within Tol, so
// plane construction, CountBetter and A-PC (sample D⁻ sets and partition
// constraints) all leave it out of count, margin and constraints. PBA+
// descends through it without consuming rank budget. See
// docs/ALGORITHMS.md, "Tolerances and degeneracy".
func QueryPlane(q, p vec.Vec, eps float64, id int) (h Hyperplane, ok bool) {
	w := q.AddScaled(-(1 - eps), p)
	if w.Norm() < vec.Eps {
		return Hyperplane{}, false
	}
	return NewHyperplane(w, id), true
}

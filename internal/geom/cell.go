package geom

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"rrq/internal/vec"
)

// Relation describes how a cell relates to a hyper-plane (Lemma 5.1).
type Relation int

const (
	// RelPos: the cell is covered by the closed positive half-space.
	RelPos Relation = iota
	// RelNeg: the cell is covered by the closed negative half-space.
	RelNeg
	// RelCross: the plane intersects the cell's interior.
	RelCross
)

func (r Relation) String() string {
	switch r {
	case RelPos:
		return "pos"
	case RelNeg:
		return "neg"
	default:
		return "cross"
	}
}

// Constraint is one half-space bounding a cell: Sign=+1 keeps u·Normal ≥ 0,
// Sign=−1 keeps u·Normal ≤ 0.
type Constraint struct {
	H    Hyperplane
	Sign int
}

// Satisfied reports whether u satisfies the constraint within tolerance
// (boundary inclusive).
func (c Constraint) Satisfied(u vec.Vec) bool {
	return float64(c.Sign)*c.H.Eval(u) >= -Tol
}

type vertex struct {
	pt    vec.Vec
	tight tightSet
}

// consList is a persistent singly-linked constraint list: children created
// by Split share their parent's tail, so adding a constraint is O(1)
// regardless of depth. Cells are immutable, which makes the sharing safe.
type consList struct {
	con  Constraint
	prev *consList
}

// Cell is a convex partition of the utility simplex: the intersection of U
// with its constraint half-spaces. Extreme points are maintained
// incrementally across cuts. Cells are immutable once built; Split and Clip
// return new cells sharing no mutable state with the receiver.
type Cell struct {
	dim   int
	cons  *consList
	nCons int
	verts []vertex
	// facets holds the cut constraints that have at least one tight
	// vertex — the candidates for actual facets of the cell. Only these
	// (plus the simplex bounds) bound the inner-sphere radius; walking the
	// full constraint chain would cost O(depth) per cell. In degenerate
	// configurations a facet can be missed (a vertex's tight set is a
	// subset of the truth), making the inner radius an overestimate; the
	// only consequence is a spurious RelCross, which every caller resolves
	// by splitting and discarding an empty side.
	facets []Constraint

	// Lazily computed sphere data (Lemmas 5.4, 5.5).
	sphereReady bool
	center      vec.Vec
	outerR      float64
	innerR      float64
}

// NewSimplex returns the whole utility space as a cell: the (d−1)-simplex
// with vertices e_1 … e_d and no cut constraints.
func NewSimplex(d int) *Cell {
	if d < 2 {
		panic(fmt.Sprintf("geom: simplex dimension %d < 2", d))
	}
	verts := make([]vertex, d)
	for i := 0; i < d; i++ {
		t := make(tightSet, 0, d-1)
		for j := 0; j < d; j++ {
			if j != i {
				t = append(t, int32(j))
			}
		}
		verts[i] = vertex{pt: vec.Basis(d, i), tight: t}
	}
	return &Cell{dim: d, verts: verts}
}

// Dim returns the ambient dimension d.
func (c *Cell) Dim() int { return c.dim }

// Constraints returns the cut constraints defining the cell (excluding the
// simplex bounds), in insertion order.
func (c *Cell) Constraints() []Constraint {
	out := make([]Constraint, c.nCons)
	i := c.nCons
	for n := c.cons; n != nil; n = n.prev {
		i--
		out[i] = n.con
	}
	return out
}

// EachConstraint calls fn with each cut constraint, in insertion order,
// without copying the list: it allocates nothing. The constraints' normals
// are shared with the cell and must not be modified.
func (c *Cell) EachConstraint(fn func(Constraint)) { c.cons.each(fn) }

// each visits the list from its oldest node, so the recursion depth is the
// constraint count.
func (l *consList) each(fn func(Constraint)) {
	if l == nil {
		return
	}
	l.prev.each(fn)
	fn(l.con)
}

// NumVertices returns the number of maintained extreme points (possibly a
// superset of the true vertex set in degenerate configurations).
func (c *Cell) NumVertices() int { return len(c.verts) }

// Vertices returns copies of the maintained extreme points.
func (c *Cell) Vertices() []vec.Vec {
	out := make([]vec.Vec, len(c.verts))
	for i, v := range c.verts {
		out[i] = v.pt.Clone()
	}
	return out
}

// Vertex returns the i-th maintained extreme point, 0 ≤ i < NumVertices,
// without copying it. The point is shared with the cell and must not be
// modified.
func (c *Cell) Vertex(i int) vec.Vec { return c.verts[i].pt }

// Contains reports whether u (assumed on the simplex) satisfies every cut
// constraint of the cell, boundary inclusive.
func (c *Cell) Contains(u vec.Vec) bool {
	for n := c.cons; n != nil; n = n.prev {
		if !n.con.Satisfied(u) {
			return false
		}
	}
	return true
}

// Center returns the barycenter of the maintained extreme points. It is a
// point inside the cell.
func (c *Cell) Center() vec.Vec {
	c.ensureSpheres()
	return c.center
}

// OuterRadius returns the radius of the outer sphere: the largest distance
// from the center to any extreme point. Every point of the cell is within
// this distance of the center.
func (c *Cell) OuterRadius() float64 {
	c.ensureSpheres()
	return c.outerR
}

// InnerRadius returns the radius of the inner sphere: the smallest affine
// distance from the center to any component hyper-plane (cut planes and
// simplex bounds). The affine ball of this radius around the center is
// contained in the cell.
func (c *Cell) InnerRadius() float64 {
	c.ensureSpheres()
	return c.innerR
}

func (c *Cell) ensureSpheres() {
	if c.sphereReady {
		return
	}
	if len(c.verts) == 0 {
		panic("geom: cell with no vertices")
	}
	ctr := vec.New(c.dim)
	for _, v := range c.verts {
		for i, x := range v.pt {
			ctr[i] += x
		}
	}
	for i := range ctr {
		ctr[i] /= float64(len(c.verts))
	}
	outer := 0.0
	for _, v := range c.verts {
		if d := ctr.Dist(v.pt); d > outer {
			outer = d
		}
	}
	// Inner radius: distance to each simplex bound {u[i]=0} inside the
	// affine hull is u[i] / ‖TangentPart(e_i)‖; the tangent norm of a
	// basis vector is sqrt(1 − 1/d). Only facet constraints are consulted.
	inner := math.Inf(1)
	bt := math.Sqrt(1 - 1/float64(c.dim))
	for i := 0; i < c.dim; i++ {
		if d := ctr[i] / bt; d < inner {
			inner = d
		}
	}
	for _, con := range c.facets {
		d := math.Abs(con.H.AffineDist(ctr))
		if d < inner {
			inner = d
		}
	}
	if inner < 0 {
		inner = 0
	}
	c.center, c.outerR, c.innerR = ctr, outer, inner
	c.sphereReady = true
}

// Relation classifies the cell against h using, in order: the hull-parallel
// shortcut, the outer-sphere test (Lemma 5.4), the inner-sphere test
// (Lemma 5.5) and, if all are inconclusive, the exact extreme-point test
// (Lemma 5.1). A cell lying entirely on the plane reports RelPos: its
// utility vectors are not strictly inside the negative half-space.
func (c *Cell) Relation(h Hyperplane) Relation {
	if h.ParallelToHull() {
		if h.HullSide() < 0 {
			return RelNeg
		}
		return RelPos
	}
	c.ensureSpheres()
	s := h.AffineDist(c.center)
	switch {
	case s-c.outerR > Tol:
		return RelPos
	case s+c.outerR < -Tol:
		return RelNeg
	case math.Abs(s)+Tol < c.innerR:
		return RelCross
	}
	return c.vertexRelation(h)
}

func (c *Cell) vertexRelation(h Hyperplane) Relation {
	neg, pos := 0, 0
	for _, v := range c.verts {
		switch h.Side(v.pt) {
		case SideNeg:
			neg++
		case SidePos:
			pos++
		}
		if neg > 0 && pos > 0 {
			return RelCross
		}
	}
	if neg > 0 {
		return RelNeg
	}
	return RelPos
}

// Split cuts the cell by h into its negative and positive parts. Either
// side may be nil when it is empty or lower-dimensional (a sliver with no
// strictly-sided vertex). The caller should normally only invoke Split when
// Relation(h) == RelCross.
func (c *Cell) Split(h Hyperplane) (neg, pos *Cell) {
	return c.split(h, true, true)
}

// Clip intersects the cell with one closed half-space of h: sign=+1 keeps
// the positive side, sign=−1 the negative side. It returns nil when the
// kept side is empty, and returns the cell itself (no constraint added)
// when the cell is already entirely on the kept side.
func (c *Cell) Clip(h Hyperplane, sign int) *Cell {
	switch c.Relation(h) {
	case RelPos:
		if sign > 0 {
			return c
		}
		return nil
	case RelNeg:
		if sign < 0 {
			return c
		}
		return nil
	}
	neg, pos := c.split(h, sign < 0, sign > 0)
	if sign > 0 {
		return pos
	}
	return neg
}

// classified pairs a vertex with its side and signed offset for one cut.
type classified struct {
	v    vertex
	side int
	val  float64
}

// splitScratch holds the transient buffers of one split invocation. Nothing
// in it escapes: vertex values are copied into the output cells' own
// slices, so recycling the backing arrays through a sync.Pool is safe even
// though the cells live arbitrarily long. Pooling matters because the
// solvers perform one split per tree refinement or clip — and, under
// intra-query parallelism, from many goroutines at once.
type splitScratch struct {
	cls   []classified
	fresh []vertex
}

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

func (c *Cell) split(h Hyperplane, wantNeg, wantPos bool) (neg, pos *Cell) {
	sc := splitPool.Get().(*splitScratch)
	cls := sc.cls[:0]
	nNeg, nPos := 0, 0
	for _, v := range c.verts {
		val := h.Eval(v.pt)
		side := vec.Sign(val, Tol)
		cls = append(cls, classified{v, side, val})
		switch side {
		case SideNeg:
			nNeg++
		case SidePos:
			nPos++
		}
	}
	nOn := len(cls) - nNeg - nPos
	hid := int32(c.dim + h.ID)

	// New extreme points: intersections of cell edges crossing the plane.
	// Two vertices are edge-adjacent iff they share at least d−2 tight
	// constraints; in degenerate configurations this may admit pairs that
	// only span a common face, whose intersection points still lie inside
	// the cell and on the plane, keeping all downstream tests sound.
	// Computed before the cells are built so the output vertex slices can
	// be allocated at their exact final size.
	fresh := sc.fresh[:0]
	if nNeg > 0 && nPos > 0 {
		need := c.dim - 2
		for i := range cls {
			if cls[i].side != SidePos {
				continue
			}
			for j := range cls {
				if cls[j].side != SideNeg {
					continue
				}
				// Count first: pairs failing the adjacency threshold are
				// the common case and must not allocate.
				if cls[i].v.tight.intersectCount(cls[j].v.tight) < need {
					continue
				}
				t := cls[i].val / (cls[i].val - cls[j].val)
				pt := cls[i].v.pt.Lerp(cls[j].v.pt, t)
				fresh = appendVertex(fresh, vertex{pt: pt, tight: cls[i].v.tight.intersectWith(cls[j].v.tight, hid)})
			}
		}
	}

	build := func(keep, nKeep, conSign int) *Cell {
		out := &Cell{dim: c.dim}
		out.cons = &consList{con: Constraint{H: h, Sign: conSign}, prev: c.cons}
		out.nCons = c.nCons + 1
		verts := make([]vertex, 0, nKeep+nOn+len(fresh))
		for _, cl := range cls {
			switch cl.side {
			case keep:
				verts = append(verts, cl.v)
			case SideOn:
				verts = append(verts, vertex{pt: cl.v.pt, tight: cl.v.tight.with(hid)})
			}
		}
		verts = append(verts, fresh...)
		out.verts = verts
		out.facets = filterFacets(c.facets, Constraint{H: h, Sign: conSign}, verts, c.dim)
		return out
	}

	if nNeg > 0 && wantNeg {
		neg = build(SideNeg, nNeg, -1)
	}
	if nPos > 0 && wantPos {
		pos = build(SidePos, nPos, +1)
	}
	sc.cls, sc.fresh = cls, fresh
	splitPool.Put(sc)
	return neg, pos
}

// filterFacets selects, from the parent's facet candidates plus the new
// constraint, those with at least one tight vertex in verts. The candidate
// list is short (facets of a convex cell), so a direct scan over the
// vertices' sorted tight sets beats building a presence map — and
// allocates nothing beyond the result.
func filterFacets(parent []Constraint, newCon Constraint, verts []vertex, dim int) []Constraint {
	out := make([]Constraint, 0, len(parent)+1)
	for _, con := range parent {
		if anyTight(verts, int32(dim+con.H.ID)) {
			out = append(out, con)
		}
	}
	if anyTight(verts, int32(dim+newCon.H.ID)) {
		out = append(out, newCon)
	}
	return out
}

// anyTight reports whether some vertex has id in its tight set.
func anyTight(verts []vertex, id int32) bool {
	for i := range verts {
		if verts[i].tight.has(id) {
			return true
		}
	}
	return false
}

// appendVertex adds v to vs, merging tight sets when an existing vertex
// coincides with v within tolerance.
func appendVertex(vs []vertex, v vertex) []vertex {
	for i := range vs {
		if coincident(vs[i].pt, v.pt) {
			vs[i].tight = vs[i].tight.union(v.tight)
			return vs
		}
	}
	return append(vs, v)
}

// coincident reports whether two vertex coordinates are equal under a
// relative-or-absolute tolerance keyed to Tol: |x−y| ≤ Tol·(1+|x|+|y|).
// An absolute comparison would be scale-dependent — too strict for
// vertices near the simplex hull (coordinates ~1, where intersection
// round-off is amplified by near-parallel planes) and needlessly exact
// near the origin. Merging "too much" is sound here: merged vertices only
// union their tight sets, which keeps more constraints alive in
// dropRedundant; splitting a true vertex in two is what loses tight
// memberships and drops live constraints.
func coincident(a, b vec.Vec) bool {
	for i, x := range a {
		y := b[i]
		if math.Abs(x-y) > Tol*(1+math.Abs(x)+math.Abs(y)) {
			return false
		}
	}
	return true
}

// SamplePoint returns a random point inside the cell: a random convex
// combination of the maintained extreme points. The distribution is not
// uniform but has full support over the cell.
func (c *Cell) SamplePoint(rng *rand.Rand) vec.Vec {
	w := vec.RandSimplex(rng, len(c.verts))
	pt := vec.New(c.dim)
	for i, v := range c.verts {
		for j, x := range v.pt {
			pt[j] += w[i] * x
		}
	}
	return pt
}

func (c *Cell) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell{d=%d, cons=%d, verts=[", c.dim, c.nCons)
	for i, v := range c.verts {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(v.pt.String())
	}
	b.WriteString("]}")
	return b.String()
}

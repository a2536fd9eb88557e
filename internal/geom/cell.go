package geom

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"rrq/internal/pile"
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

// consList is one record of a persistent constraint chain: children built
// by a split point at their parent's chain, so adding a constraint is O(1)
// regardless of depth. A record names its plane by pointer, so every
// record of one plane shares one header. Records live in slabs and are
// immutable once written, which makes the sharing safe.
type consList struct {
	h    *Hyperplane
	sign int
	prev *consList
	fwd  *consList // Compact's forwarding address; nil outside Compact
}

// con returns the record's constraint.
func (r *consList) con() Constraint { return Constraint{H: *r.h, Sign: r.sign} }

// Cell is a convex partition of the utility simplex: the intersection of U
// with its constraint half-spaces. Extreme points are maintained
// incrementally across cuts. Cells are immutable once built — their sphere
// data is computed by the constructor, not on first use — so any number of
// goroutines may read one cell at once; Split and Clip return new cells
// sharing no mutable state with the receiver.
//
// A cell's data lives in a Slab as flat runs: its vertex coordinates in the
// float64 pile (stride d, followed by d slots for the sphere center), its
// vertices' tight sets back to back in the int32 pile, its facets as
// pointers to records of its own constraint chain. NewSimplex, Split and
// Clip build into a fresh slab of exactly the size they need, owned by the
// returned cells alone; NewSimplexIn and SplitInto build into a slab the
// caller owns and may reuse, and Compact copies cells out of one. The
// tight sets and facets are split state: only a split reads them, so a
// compacted cell has none and cannot be split, while every read —
// Contains, Relation, vertices, constraints, spheres, String — works on it.
type Cell struct {
	dim int
	nv  int // maintained extreme points
	// pts holds the nv extreme points, dim coordinates each, then dim
	// slots for the sphere center.
	pts []float64
	// tight holds nv+1 offsets into itself, then the vertices' tight sets:
	// vertex i's set is tight[tight[i]:tight[i+1]]. It is nil exactly in a
	// compacted cell.
	tight []int32
	cons  *consList
	nCons int
	// facets holds the records of the cut constraints that have at least
	// one tight vertex — the candidates for actual facets of the cell.
	// Only these (plus the simplex bounds) bound the inner-sphere radius;
	// walking the full constraint chain would cost O(depth) per cell. In
	// degenerate configurations a facet can be missed (a vertex's tight set
	// is a subset of the truth), making the inner radius an overestimate;
	// the only consequence is a spurious RelCross, which every caller
	// resolves by splitting and discarding an empty side.
	facets []*consList

	// Sphere data (Lemmas 5.4, 5.5), computed when the cell is built; the
	// center lives at the end of pts.
	outerR float64
	innerR float64
}

// Slab is flat storage for cells: every vertex coordinate, tight set,
// facet list, constraint record, plane header and Cell value of the cells
// built into it is carved from one pile per kind, and the split kernel's
// scratch buffers live beside them. A slab holds the headers its own
// records point at — the copies Split and Clip take of their plane, and
// Compact's one header and unit normal per distinct plane — but not those
// of SplitInto, which stay the caller's. A slab grows in chunks that never
// move, so cells built into it stay valid while it grows, and Reset
// recycles all of it at once. A solver that refines many short-lived cells
// builds them in one reused slab and Compacts the cells it answers with; a
// cell whose lifetime the caller does not control must never live in a
// slab that is Reset.
//
// A Slab is not safe for concurrent use: each goroutine that splits needs
// a slab of its own. Cells built into a slab may be read, and split into
// another slab, from any goroutine ordered after the split that built them.
// The zero value is empty and ready to use.
type Slab struct {
	floats pile.Pile[float64]
	ints   pile.Pile[int32]
	facets pile.Pile[*consList]
	cons   pile.Pile[consList]
	planes pile.Pile[Hyperplane]
	cells  pile.Pile[Cell]

	// Split scratch: the parent's per-vertex plane offsets, and the new
	// extreme points.
	vals  []float64
	fresh freshVerts
}

// Reset recycles everything built into s. Every cell built into it is
// invalid afterwards.
func (s *Slab) Reset() {
	s.floats.Reset()
	s.ints.Reset()
	s.facets.Reset()
	s.cons.Reset()
	s.planes.Reset()
	s.cells.Reset()
}

// Bytes returns the slab's storage capacity in bytes.
func (s *Slab) Bytes() int {
	return s.floats.Bytes() + s.ints.Bytes() + s.facets.Bytes() + s.cons.Bytes() + s.planes.Bytes() + s.cells.Bytes() +
		8*(cap(s.vals)+cap(s.fresh.pts)+cap(s.fresh.spans)) + 4*cap(s.fresh.ids)
}

// Used returns the bytes of cell storage built into the slab since its last
// Reset: what the cells built since then take, whatever capacity earlier
// use left it. The split scratch is not counted.
func (s *Slab) Used() int {
	return s.floats.Used() + s.ints.Used() + s.facets.Used() + s.cons.Used() + s.planes.Used() + s.cells.Used()
}

// plane copies h into the slab, for the records of a split by value.
func (s *Slab) plane(h Hyperplane) *Hyperplane {
	p := &s.planes.Take(1)[0]
	*p = h
	return p
}

// reserve makes room for cells cells with verts extreme points, members
// tight-set members, facets facet slots and records constraint records in
// total, so they are carved from one chunk per pile.
func (s *Slab) reserve(dim, cells, verts, members, facets, records int) {
	s.cells.Reserve(cells)
	s.floats.Reserve((verts + cells) * dim)
	s.ints.Reserve(verts + cells + members)
	s.facets.Reserve(facets)
	s.cons.Reserve(records)
}

// newCell carves a cell with nv extreme points and members tight-set
// members from s; the caller fills in its data.
func (s *Slab) newCell(dim, nv, members int) *Cell {
	c := &s.cells.Take(1)[0]
	c.dim, c.nv = dim, nv
	c.pts = s.floats.Take((nv + 1) * dim)
	c.tight = s.ints.Take(nv + 1 + members)
	return c
}

// NewSimplex returns the whole utility space as a cell: the (d−1)-simplex
// with vertices e_1 … e_d and no cut constraints.
func NewSimplex(d int) *Cell { return NewSimplexIn(d, new(Slab)) }

// NewSimplexIn is NewSimplex built into the slab s.
func NewSimplexIn(d int, s *Slab) *Cell {
	if d < 2 {
		panic(fmt.Sprintf("geom: simplex dimension %d < 2", d))
	}
	c := s.newCell(d, d, d*(d-1))
	o := int32(d + 1)
	for i := 0; i < d; i++ {
		c.pts[i*d+i] = 1
		c.tight[i] = o
		for j := 0; j < d; j++ {
			if j != i {
				c.tight[o] = int32(j)
				o++
			}
		}
	}
	c.tight[d] = o
	c.computeSpheres()
	return c
}

// Dim returns the ambient dimension d.
func (c *Cell) Dim() int { return c.dim }

// NumConstraints returns the number of cut constraints.
func (c *Cell) NumConstraints() int { return c.nCons }

// Constraints returns the cut constraints defining the cell (excluding the
// simplex bounds), in insertion order.
func (c *Cell) Constraints() []Constraint {
	out := make([]Constraint, c.nCons)
	i := c.nCons
	for n := c.cons; n != nil; n = n.prev {
		i--
		out[i] = n.con()
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
	fn(l.con())
}

// NumVertices returns the number of maintained extreme points (possibly a
// superset of the true vertex set in degenerate configurations).
func (c *Cell) NumVertices() int { return c.nv }

// Vertices returns copies of the maintained extreme points.
func (c *Cell) Vertices() []vec.Vec {
	out := make([]vec.Vec, c.nv)
	for i := range out {
		out[i] = c.Vertex(i).Clone()
	}
	return out
}

// Vertex returns the i-th maintained extreme point, 0 ≤ i < NumVertices,
// without copying it. The point is shared with the cell and must not be
// modified.
func (c *Cell) Vertex(i int) vec.Vec {
	return vec.Vec(c.pts[i*c.dim : (i+1)*c.dim : (i+1)*c.dim])
}

// tightOf returns the tight set of the i-th extreme point.
func (c *Cell) tightOf(i int) tightSet { return tightSet(c.tight[c.tight[i]:c.tight[i+1]]) }

// anyTight reports whether some extreme point has id in its tight set.
func (c *Cell) anyTight(id int32) bool {
	for _, x := range c.tight[c.nv+1:] {
		if x == id {
			return true
		}
	}
	return false
}

// Contains reports whether u (assumed on the simplex) satisfies every cut
// constraint of the cell, boundary inclusive.
func (c *Cell) Contains(u vec.Vec) bool {
	for n := c.cons; n != nil; n = n.prev {
		if !(float64(n.sign)*n.h.Eval(u) >= -Tol) { // Constraint.Satisfied, so NaN fails
			return false
		}
	}
	return true
}

// Center returns the barycenter of the maintained extreme points. It is a
// point inside the cell, shared with it.
func (c *Cell) Center() vec.Vec {
	o := c.nv * c.dim
	return vec.Vec(c.pts[o : o+c.dim : o+c.dim])
}

// OuterRadius returns the radius of the outer sphere: the largest distance
// from the center to any extreme point. Every point of the cell is within
// this distance of the center.
func (c *Cell) OuterRadius() float64 {
	return c.outerR
}

// InnerRadius returns the radius of the inner sphere: the smallest affine
// distance from the center to any component hyper-plane (cut planes and
// simplex bounds). The affine ball of this radius around the center is
// contained in the cell.
func (c *Cell) InnerRadius() float64 {
	return c.innerR
}

// computeSpheres fills in the sphere data of a cell whose vertices and
// facets are in place. Only constructors call it: a built cell is never
// written again.
func (c *Cell) computeSpheres() {
	if c.nv == 0 {
		panic("geom: cell with no vertices")
	}
	ctr := c.Center()
	clear(ctr)
	for i := 0; i < c.nv; i++ {
		for j, x := range c.Vertex(i) {
			ctr[j] += x
		}
	}
	for i := range ctr {
		ctr[i] /= float64(c.nv)
	}
	outer := 0.0
	for i := 0; i < c.nv; i++ {
		if d := ctr.Dist(c.Vertex(i)); d > outer {
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
	for _, f := range c.facets {
		d := math.Abs(f.h.AffineDist(ctr))
		if d < inner {
			inner = d
		}
	}
	if inner < 0 {
		inner = 0
	}
	c.outerR, c.innerR = outer, inner
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
	s := h.AffineDist(c.Center())
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
	for i := 0; i < c.nv; i++ {
		switch h.Side(c.Vertex(i)) {
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
// Relation(h) == RelCross. The parts live in a fresh slab of their own,
// which holds a copy of h's header; h's normal is shared, not copied. Split
// panics on a compacted cell.
func (c *Cell) Split(h Hyperplane) (neg, pos *Cell) {
	s := new(Slab)
	return c.split(s.plane(h), true, true, s)
}

// SplitInto is Split building the parts into the slab s. The parts' new
// constraint records point at *h itself, so the caller keeps *h alive and
// unchanged while the parts or cells split from them are in use; Compact
// copies it out.
func (c *Cell) SplitInto(h *Hyperplane, s *Slab) (neg, pos *Cell) {
	return c.split(h, true, true, s)
}

// Clip intersects the cell with one closed half-space of h: sign=+1 keeps
// the positive side, sign=−1 the negative side. It returns nil when the
// kept side is empty, and returns the cell itself (no constraint added)
// when the cell is already entirely on the kept side. A new cell lives in
// a fresh slab of its own, with a copy of h's header, like Split's parts;
// a crossing Clip of a compacted cell panics.
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
	s := new(Slab)
	neg, pos := c.split(s.plane(h), sign < 0, sign > 0, s)
	if sign > 0 {
		return pos
	}
	return neg
}

// freshVerts collects the extreme points a cut creates, merging coincident
// ones: coordinates back to back (stride d) and tight sets in one int32
// buffer. It is split scratch: its buffers are reused by the next split.
type freshVerts struct {
	d     int
	pts   []float64
	ids   []int32    // tight-set members; a merge leaves the old sets behind
	spans [][2]int32 // per point: its tight set's bounds in ids
}

// reset empties f for points of dimension d, sized for n points with
// tight sets of up to d members — a cut of a cell with n vertices rarely
// makes more — so a fresh slab's split allocates each buffer once.
func (f *freshVerts) reset(d, n int) {
	f.d, f.pts, f.ids, f.spans = d, f.pts[:0], f.ids[:0], f.spans[:0]
	if cap(f.pts) < n*d {
		f.pts = make([]float64, 0, n*d)
	}
	if cap(f.ids) < n*d {
		f.ids = make([]int32, 0, n*d)
	}
	if cap(f.spans) < n {
		f.spans = make([][2]int32, 0, n)
	}
}

func (f *freshVerts) len() int { return len(f.spans) }

func (f *freshVerts) pt(i int) vec.Vec { return vec.Vec(f.pts[i*f.d : (i+1)*f.d]) }

func (f *freshVerts) tight(i int) tightSet { return tightSet(f.ids[f.spans[i][0]:f.spans[i][1]]) }

// commit adopts the candidate the caller appended last — its coordinates
// at the end of pts, its tight set at ids[lo:] — as a new point, or, when
// an earlier point coincides with it within tolerance, drops it and merges
// its tight set into that point's.
func (f *freshVerts) commit(lo int) {
	n := f.len()
	cand := f.pt(n)
	for i := 0; i < n; i++ {
		if coincident(f.pt(i), cand) {
			u := len(f.ids)
			f.ids = f.tight(i).appendUnion(f.ids, tightSet(f.ids[lo:u]))
			f.spans[i] = [2]int32{int32(u), int32(len(f.ids))}
			f.pts = f.pts[:n*f.d]
			return
		}
	}
	f.spans = append(f.spans, [2]int32{int32(lo), int32(len(f.ids))})
}

// scratch returns the split scratch's plane-offset buffer, empty with room
// for nv values. A slab short of room gets it in one buffer with the new
// points' coordinates — nv points of d each, which a cut rarely exceeds —
// so a split into a fresh slab allocates the two at once.
func (s *Slab) scratch(d, nv int) []float64 {
	if cap(s.vals) < nv {
		buf := make([]float64, nv*(d+1))
		s.vals, s.fresh.pts = buf[:0:nv], buf[nv:nv]
	}
	return s.vals[:0]
}

// split is the one split kernel: it classifies the vertices against h,
// computes the new extreme points where cell edges cross it, and builds
// the wanted non-empty sides into s, their new records pointing at h.
func (c *Cell) split(h *Hyperplane, wantNeg, wantPos bool, s *Slab) (neg, pos *Cell) {
	if c.tight == nil {
		panic("geom: split of a compacted cell: Compact keeps no tight sets or facets")
	}
	d, nv := c.dim, c.nv
	vals := s.scratch(d, nv)
	var nNeg, nPos, memNeg, memPos, memOn int
	hid := int32(d + h.ID)
	for i := 0; i < nv; i++ {
		val := h.Eval(c.Vertex(i))
		vals = append(vals, val)
		t := c.tightOf(i)
		switch vec.Sign(val, Tol) {
		case SideNeg:
			nNeg++
			memNeg += len(t)
		case SidePos:
			nPos++
			memPos += len(t)
		default:
			memOn += len(t)
			if !t.has(hid) {
				memOn++
			}
		}
	}
	s.vals = vals
	side := func(i int) int { return vec.Sign(vals[i], Tol) }
	nOn := nv - nNeg - nPos

	// New extreme points: intersections of cell edges crossing the plane.
	// Two vertices are edge-adjacent iff they share at least d−2 tight
	// constraints; in degenerate configurations this may admit pairs that
	// only span a common face, whose intersection points still lie inside
	// the cell and on the plane, keeping all downstream tests sound.
	// Computed before the cells are built so their storage can be carved
	// at its exact final size.
	f := &s.fresh
	if nNeg > 0 && nPos > 0 {
		f.reset(d, nv)
		need := d - 2
		for i := 0; i < nv; i++ {
			if side(i) != SidePos {
				continue
			}
			ti, pi := c.tightOf(i), c.Vertex(i)
			for j := 0; j < nv; j++ {
				if side(j) != SideNeg {
					continue
				}
				tj := c.tightOf(j)
				if ti.intersectCount(tj) < need {
					continue
				}
				// pi + t·(pj − pi), as vec.Lerp computes it.
				t := vals[i] / (vals[i] - vals[j])
				pj := c.Vertex(j)
				for k, x := range pi {
					f.pts = append(f.pts, x+t*(pj[k]-x))
				}
				lo := len(f.ids)
				f.ids = ti.appendIntersectWith(f.ids, tj, hid)
				f.commit(lo)
			}
		}
	} else {
		f.reset(d, 0)
	}
	memFresh := 0
	for i := 0; i < f.len(); i++ {
		memFresh += len(f.tight(i))
	}

	wantNeg = wantNeg && nNeg > 0
	wantPos = wantPos && nPos > 0
	cells, verts, members := 0, 0, 0
	if wantNeg {
		cells, verts, members = cells+1, verts+nNeg, members+memNeg
	}
	if wantPos {
		cells, verts, members = cells+1, verts+nPos, members+memPos
	}
	common := nOn + f.len()
	s.reserve(d, cells, verts+cells*common, members+cells*(memOn+memFresh), cells*(len(c.facets)+1), cells)

	build := func(keep, nKeep, mem, conSign int) *Cell {
		out := s.newCell(d, nKeep+common, mem+memOn+memFresh)
		rec := &s.cons.Take(1)[0]
		rec.h, rec.sign, rec.prev = h, conSign, c.cons
		out.cons, out.nCons = rec, c.nCons+1
		members := out.tight[:out.nv+1] // the offsets; the sets follow
		v := 0
		add := func(pt vec.Vec) {
			copy(out.pts[v*d:], pt)
			out.tight[v] = int32(len(members))
			v++
		}
		for i := 0; i < nv; i++ {
			switch side(i) {
			case keep:
				add(c.Vertex(i))
				members = append(members, c.tightOf(i)...)
			case SideOn:
				add(c.Vertex(i))
				members = c.tightOf(i).appendWith(members, hid)
			}
		}
		for i := 0; i < f.len(); i++ {
			add(f.pt(i))
			members = append(members, f.tight(i)...)
		}
		out.tight[v] = int32(len(members))
		if len(members) != len(out.tight) {
			panic("geom: split miscounted tight-set members")
		}

		facets := s.facets.Take(len(c.facets) + 1)[:0]
		for _, fc := range c.facets {
			if out.anyTight(int32(d + fc.h.ID)) {
				facets = append(facets, fc)
			}
		}
		if out.anyTight(hid) {
			facets = append(facets, rec)
		}
		out.facets = facets[:len(facets):len(facets)]
		out.computeSpheres()
		return out
	}
	if wantNeg {
		neg = build(SideNeg, nNeg, memNeg, -1)
	}
	if wantPos {
		pos = build(SidePos, nPos, memPos, +1)
	}
	return neg, pos
}

// Compact copies cells into one fresh slab of exactly their size and
// returns the copies in order. A copy keeps what reading a cell needs: its
// vertices, sphere data and constraint records, which copies share where
// their sources did, and one header and unit normal per distinct plane,
// which every record of that plane points at. It drops the tight sets and
// facets only a split reads, so a copy cannot be split: Split, SplitInto
// and a crossing Clip of it panic. No copy aliases the source's storage,
// its planes' headers and normals included, so a solver that built its
// cells in a reused slab answers with the copies. Compact marks the source
// cells' records while it runs and unmarks them before it returns: no
// other goroutine may use the source cells during the call.
func Compact(cells []*Cell) []*Cell {
	var buf [128]planeSlot
	seen := planeTable{slots: buf[:]}
	var floats, records int
	for _, c := range cells {
		floats += len(c.pts)
		for r := c.cons; r != nil && r.fwd == nil; r = r.prev {
			r.fwd = r // counted, not yet copied
			records++
			if slot := seen.slot(r.h); slot.src == nil {
				slot.src = r.h
				seen.n++
				floats += len(r.h.Normal)
				seen.grow()
			}
		}
	}
	s := new(Slab)
	s.floats.Reserve(floats)
	s.cons.Reserve(records)
	planes := s.planes.Take(seen.n)[:0]
	for i := range seen.slots {
		slot := &seen.slots[i]
		if slot.src == nil {
			continue
		}
		planes = append(planes, *slot.src)
		cp := &planes[len(planes)-1]
		cp.Normal = s.floats.Take(len(cp.Normal))
		copy(cp.Normal, slot.src.Normal)
		slot.dst = cp
	}
	copies := s.cells.Take(len(cells))
	out := make([]*Cell, len(cells))
	for i, c := range cells {
		cp := &copies[i]
		*cp = *c
		cp.pts = s.floats.Take(len(c.pts))
		copy(cp.pts, c.pts)
		cp.tight, cp.facets = nil, nil
		cp.cons = s.copyChain(c.cons, &seen)
		out[i] = cp
	}
	for _, c := range cells {
		for r := c.cons; r != nil && r.fwd != nil; r = r.prev {
			r.fwd = nil
		}
	}
	return out
}

// copyChain returns the copy of the chain ending at r, copying into s the
// records not copied yet and pointing them at the header copies seen
// holds. Recursion depth is the chain's length.
func (s *Slab) copyChain(r *consList, seen *planeTable) *consList {
	if r == nil {
		return nil
	}
	if r.fwd != r {
		return r.fwd
	}
	cp := &s.cons.Take(1)[0]
	cp.h, cp.sign = seen.slot(r.h).dst, r.sign
	r.fwd = cp
	cp.prev = s.copyChain(r.prev, seen)
	return cp
}

// planeTable is Compact's map from a source header to its copy: open
// addressing keyed by the header's address and hashed by its plane ID, at
// most half full, so a lookup costs O(1) expected and the whole dedupe
// O(records). It starts in a caller's buffer and grows fourfold past it.
type planeTable struct {
	slots []planeSlot // length a power of two
	n     int         // occupied slots
}

type planeSlot struct{ src, dst *Hyperplane }

// slot returns h's slot: the one holding h, or the empty one where h goes.
func (t *planeTable) slot(h *Hyperplane) *planeSlot {
	mask := uint64(len(t.slots) - 1)
	for i := uint64(h.ID) * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.src == h || s.src == nil {
			return s
		}
	}
}

// grow rehashes into a table four times larger once it is half full.
func (t *planeTable) grow() {
	if 2*t.n < len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]planeSlot, 4*len(old))
	for _, s := range old {
		if s.src != nil {
			*t.slot(s.src) = s
		}
	}
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
	w := vec.RandSimplex(rng, c.nv)
	pt := vec.New(c.dim)
	for i := 0; i < c.nv; i++ {
		for j, x := range c.Vertex(i) {
			pt[j] += w[i] * x
		}
	}
	return pt
}

func (c *Cell) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cell{d=%d, cons=%d, verts=[", c.dim, c.nCons)
	for i := 0; i < c.nv; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(c.Vertex(i).String())
	}
	b.WriteString("]}")
	return b.String()
}

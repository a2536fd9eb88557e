// Package core implements the reverse regret query (RRQ) of the paper:
// given a dataset D, a query point q, an integer k and a threshold ε, find
// the region of the utility simplex on which q is a (k,ε)-regret point.
//
// Three solvers are provided, mirroring the paper:
//
//   - Sweeping: the linear-time special case for d = 2 (paper §4).
//   - EPT: the exact partition-tree algorithm for any d (paper §5.1) with
//     all four published accelerations.
//   - APC: the approximate progressive-construction algorithm (paper §5.2).
//
// A brute-force reference solver and a membership oracle support testing.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"rrq/internal/geom"
	"rrq/internal/topk"
	"rrq/internal/vec"
)

// Query is one reverse regret query.
type Query struct {
	Q   vec.Vec // the query point, d-dimensional, attributes in (0,1]
	K   int     // rank parameter k ≥ 1
	Eps float64 // regret threshold ε ∈ [0,1)
}

// Key returns the canonical comparable form of the query: a compact byte
// string that is equal exactly when (Q, K, Eps) are bit-for-bit equal. It is
// the single key used wherever a whole query is hashed — the result cache,
// the server's in-flight deduplication, batch duplicate collapse — so no
// layer re-derives its own ad-hoc encoding. The layout is fixed-width
// little-endian (K, then Eps, then the coordinates of Q); queries of
// different dimensions therefore have different lengths and never collide.
func (q Query) Key() string {
	b := make([]byte, 0, 16+8*len(q.Q))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(q.K))
	b = append(b, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(q.Eps))
	b = append(b, tmp[:]...)
	for _, x := range q.Q {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		b = append(b, tmp[:]...)
	}
	return string(b)
}

// PointKey returns the canonical comparable form of the query point alone,
// without K and Eps — the bucket key under which the result cache groups
// entries whose cached regions bound each other through the k/ε
// monotonicity invariants.
func (q Query) PointKey() string {
	b := make([]byte, 0, 8*len(q.Q))
	var tmp [8]byte
	for _, x := range q.Q {
		binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(x))
		b = append(b, tmp[:]...)
	}
	return string(b)
}

// String renders the query in the human-readable form used by logs and
// error paths: "q=(0.4,0.7) k=2 eps=0.1".
func (q Query) String() string {
	var sb strings.Builder
	sb.WriteString("q=(")
	for i, x := range q.Q {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	fmt.Fprintf(&sb, ") k=%d eps=%s", q.K, strconv.FormatFloat(q.Eps, 'g', -1, 64))
	return sb.String()
}

// QueryError is the typed validation error every entry point returns for a
// malformed query. Field names the offending parameter: "q" (the query
// point), "k", "epsilon" or "dim" (a query/dataset dimension mismatch).
type QueryError struct {
	Field string
	Msg   string
}

func (e *QueryError) Error() string {
	return fmt.Sprintf("core: invalid query (%s): %s", e.Field, e.Msg)
}

func queryErrf(field, format string, args ...any) *QueryError {
	return &QueryError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// DataError is the typed validation error for a malformed dataset point:
// NaN/Inf or non-positive attribute values (the paper assumes the domain
// (0,1]; build raw data with rrq.NewNormalizedDataset), or a dimension
// mismatch. Point is the offending point's index, Attr the offending
// attribute (−1 for a dimension mismatch). A dataset dimension below 2
// faults no single point and reports Point −1.
type DataError struct {
	Point int
	Attr  int
	Msg   string
}

func (e *DataError) Error() string {
	if e.Point < 0 {
		return "core: invalid data: " + e.Msg
	}
	if e.Attr >= 0 {
		return fmt.Sprintf("core: invalid data point %d attribute %d: %s", e.Point, e.Attr, e.Msg)
	}
	return fmt.Sprintf("core: invalid data point %d: %s", e.Point, e.Msg)
}

func dataErrf(point, attr int, format string, args ...any) *DataError {
	return &DataError{Point: point, Attr: attr, Msg: fmt.Sprintf(format, args...)}
}

// CheckDim checks a dataset dimension: every solver needs d ≥ 2. A failure
// is a *DataError with Point and Attr −1.
func CheckDim(dim int) error {
	if dim < 2 {
		return dataErrf(-1, -1, "dimension %d < 2", dim)
	}
	return nil
}

// CheckRow checks the shape of raw row i — dimension dim, finite
// attributes — the part of the point domain that holds before rescaling.
// Non-finite values silently corrupt the geometry kernels: every half-space
// test on them is poisoned. A failure is a *DataError reporting index i.
func CheckRow(i int, p vec.Vec, dim int) error {
	if p.Dim() != dim {
		return dataErrf(i, -1, "dimension %d, want %d", p.Dim(), dim)
	}
	for j, x := range p {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return dataErrf(i, j, "value is %v", x)
		}
	}
	return nil
}

// CheckPoint is the one data rule: point i must pass CheckRow and have
// strictly positive attributes, the paper's (0,1] domain. It runs where
// points enter the process — dataset construction, checkpoint load, index
// insertion — and everything built from checked points trusts them. A
// failure is a *DataError reporting index i.
func CheckPoint(i int, p vec.Vec, dim int) error {
	if err := CheckRow(i, p, dim); err != nil {
		return err
	}
	for j, x := range p {
		if x <= 0 {
			return dataErrf(i, j, "value %v is not positive (attributes live in (0,1]; build raw data with NewNormalizedDataset)", x)
		}
	}
	return nil
}

// CheckPoints checks a whole point set: CheckDim, then CheckPoint on each
// point. The first failure is returned.
func CheckPoints(pts []vec.Vec, dim int) error {
	if err := CheckDim(dim); err != nil {
		return err
	}
	for i, p := range pts {
		if err := CheckPoint(i, p, dim); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the query against the dataset dimension d: the query
// point must be d-dimensional (d ≥ 2) and finite, k ≥ 1 and ε ∈ [0,1).
// The single validation authority for every entry point — solvers, the
// dynamic region and the PBA+ index all route through it. A failure is
// always a *QueryError.
func (q Query) Validate(d int) error {
	if qe := q.validate(d); qe != nil {
		return qe
	}
	return nil
}

// validate returns the concrete error type; kept separate from Validate so
// a nil *QueryError never leaks into a non-nil error interface.
func (q Query) validate(d int) *QueryError {
	if q.Q.Dim() != d {
		return queryErrf("dim", "query dimension %d does not match dataset dimension %d", q.Q.Dim(), d)
	}
	if d < 2 {
		return queryErrf("q", "dimension %d < 2", d)
	}
	for i, x := range q.Q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return queryErrf("q", "query coordinate %d is %v", i, x)
		}
		if x <= 0 {
			return queryErrf("q", "query coordinate %d is %v, want > 0 (attributes live in (0,1])", i, x)
		}
	}
	if q.K < 1 {
		return queryErrf("k", "k = %d < 1", q.K)
	}
	if q.Eps < 0 || q.Eps >= 1 || math.IsNaN(q.Eps) {
		return queryErrf("epsilon", "ε = %v outside [0,1)", q.Eps)
	}
	return nil
}

// FilterCustomers answers the bichromatic (discrete) variant of RRQ, as in
// the finite-preference-set reverse top-k literature: given an explicit set
// of customer utility vectors, return the indices of those for which q is a
// (k,ε)-regret point. Linear in |customers|·|pts|.
func FilterCustomers(pts []vec.Vec, q Query, customers []vec.Vec) ([]int, error) {
	d := q.Q.Dim()
	if err := q.Validate(d); err != nil {
		return nil, err
	}
	var out []int
	for i, u := range customers {
		if u.Dim() != d {
			return nil, fmt.Errorf("core: customer %d has dimension %d, want %d", i, u.Dim(), d)
		}
		if QualifiedAt(pts, q, u) {
			out = append(out, i)
		}
	}
	return out, nil
}

// RegretRatio computes k-regratio(q, u) (Definition 3.2): the relative gap
// between the k-th highest utility in pts and the utility of q, floored at
// zero.
func RegretRatio(pts []vec.Vec, q Query, u vec.Vec) float64 {
	if len(pts) == 0 {
		return 0
	}
	utils := topk.Utilities(pts, u)
	sk := topk.KthMax(utils, q.K)
	fq := u.Dot(q.Q)
	if sk <= 0 {
		return 0
	}
	return math.Max(0, sk-fq) / sk
}

// CountBetter returns the number of points p with (1−ε)·f_u(p) > f_u(q) —
// the number of negative half-spaces containing u — together with the
// smallest absolute margin |(1−ε)f_u(p) − f_u(q)| seen over the planes that
// genuinely cross the utility space. By Lemma 3.5, q is a (k,ε)-regret
// point w.r.t. u iff the count is below k. The margin lets property tests
// skip utility vectors that sit numerically on a boundary.
//
// Each point is classified by classifyPlane, the rule every solver builds
// its planes with, so this oracle and every solver agree on degenerate
// inputs: a plane whose normal q − (1−ε)p is ≥ 0 within tolerance
// (including the exactly-zero normal from q = (1−ε)p) never counts, one
// that is ≤ 0 within tolerance always counts, and only the remaining
// crossing planes are decided by the sign of the utility difference.
// Deciding those degenerate planes by the raw floating-point difference
// instead would make the count depend on rounding noise — and a zero
// normal would pin the reported margin to ~0 for every u, silently
// disabling margin-guarded checks.
func CountBetter(pts []vec.Vec, q Query, u vec.Vec) (count int, margin float64) {
	fq := u.Dot(q.Q)
	margin = math.Inf(1)
	scale := 1 - q.Eps
	for _, p := range pts {
		switch classifyPlane(q.Q, p, scale) {
		case planeDrop:
			// Never negative over U: contributes 0 everywhere and has no
			// boundary inside U.
		case planeBase:
			count++
		case planeCross:
			diff := scale*u.Dot(p) - fq
			if diff > 0 {
				count++
			}
			if a := math.Abs(diff); a < margin {
				margin = a
			}
		}
	}
	return count, margin
}

// QualifiedAt reports whether q is a (k,ε)-regret point w.r.t. u, using the
// half-space counting characterization (Lemma 3.5). For ε > 0 this agrees
// with RegretRatio(…) < ε except on measure-zero boundaries; for ε = 0 it
// yields the continuous reverse top-k semantics.
func QualifiedAt(pts []vec.Vec, q Query, u vec.Vec) bool {
	c, _ := CountBetter(pts, q, u)
	return c < q.K
}

// PlaneSet is the preprocessed hyper-plane arrangement input shared by the
// solvers. The normals may be shared — a plane group serves the same unit
// normals to any number of concurrent queries — and are read-only; the
// headers are the caller's, built into its Arena for each lookup, so a
// solver may reorder the slice and rebind its entries to normals of its
// own (PackNormals, which packs E-PT's into the Arena).
type PlaneSet struct {
	Crossing []geom.Hyperplane // planes whose negative half-space cuts U properly
	Base     int               // planes whose negative half-space covers all of U
}

// KEff returns the effective budget k − Base. When ≤ 0 the whole utility
// space is disqualified.
func (ps PlaneSet) KEff(k int) int { return k - ps.Base }

// planeKind is the class of h_{q,p} with respect to the utility space U.
type planeKind uint8

const (
	planeDrop  planeKind = iota // never negative over U: never counts against q
	planeBase                   // negative over all of U: counts everywhere
	planeCross                  // crosses U: counts on its negative side only
)

// classifyPlane decides the class of h_{q,p}, whose normal is
// q − scale·p with scale = 1 − ε (paper §3.2, Lemma 3.5), from the signs of
// the normal's components, each compared against geom.Tol:
//
//   - no component below −Tol (normal ≥ 0, including the degenerate zero
//     normal from q = (1−ε)p): the negative half-space misses U, so the
//     plane never counts against q — planeDrop;
//   - some component below −Tol and none above +Tol (normal ≤ 0): the
//     negative half-space covers U up to measure zero, a constant +1 on
//     every partition's counter — planeBase;
//   - components beyond the tolerance on both sides: the plane crosses U —
//     planeCross.
//
// This is the one place the rule lives: plane construction (every core
// solver's plane set) and the counting oracle CountBetter call it, so the
// layers cannot disagree on a degenerate plane.
func classifyPlane(q, p vec.Vec, scale float64) planeKind {
	neg, pos := false, false
	for j, qj := range q {
		x := qj - scale*p[j]
		if x > geom.Tol {
			pos = true
		} else if x < -geom.Tol {
			neg = true
		}
	}
	switch {
	case !neg:
		return planeDrop
	case !pos:
		return planeBase
	}
	return planeCross
}

// buildPlanes constructs h_{q,p} for every p ∈ pts, classifies it with
// classifyPlane, folds the planeBase planes into Base and keeps the crossing
// planes; planeDrop planes are dropped. Plane IDs are the indices of the
// source points, which keeps them unique within the arrangement as the
// geometry package requires.
//
// It is classifyPlanes followed by narrow over every point: the kinds, the
// unit-normal block and the headers live in a's buffers, which grow to
// exact size when too small. On a solve's pooled arena the result is valid
// only until the solve returns (E-PT's answer keeps copies of the planes
// it needs, made by geom.Compact, and Sweeping only reads the normals
// during its window scan); on a fresh zero
// arena it is three exact-size allocations the caller owns, whatever the
// number of crossings.
func buildPlanes(pts []vec.Vec, q Query, a *Arena) PlaneSet {
	kinds, normals := classifyPlanes(pts, q, a)
	return narrow(kinds, normals, nil, 0, q.Q.Dim(), a)
}

// classifyPlanes classifies h_{q,p} for every p ∈ pts with classifyPlane
// and writes the unit normals of the crossing planes, in point order, into
// one flat block of stride d sized by the classification, so the block
// never moves under headers built on it. Both live in a's kinds and
// normals buffers.
func classifyPlanes(pts []vec.Vec, q Query, a *Arena) ([]planeKind, []float64) {
	scale := 1 - q.Eps
	kinds := grow(&a.kinds, len(pts))
	crossings := 0
	for i, p := range pts {
		kinds[i] = classifyPlane(q.Q, p, scale)
		if kinds[i] == planeCross {
			crossings++
		}
	}
	d := q.Q.Dim()
	normals := grow(&a.normals, crossings*d)
	c := 0
	for i, p := range pts {
		if kinds[i] != planeCross {
			continue
		}
		slot := vec.Vec(normals[c : c+d : c+d])
		for j := range slot {
			slot[j] = q.Q[j] - scale*p[j]
		}
		geom.NormalizeInto(slot, slot)
		c += d
	}
	return kinds, normals
}

// narrow is the one walk that turns a classified band — its per-point
// kinds and the unit normals of its crossing planes, stride d — into the
// plane set of the k-band inside it: the points whose dominator count in
// cnt is below k, or every point when cnt is nil. It counts the kept
// planeBase points into Base and builds a header for each kept crossing
// plane with geom.NewUnitHyperplane, ID = its position in the k-band —
// exactly the set buildPlanes builds over the k-band itself. The headers
// go into a's planes buffer, grown to the band's crossing count when too
// small; the normals alias the block, which every solver treats as
// read-only.
func narrow(kinds []planeKind, normals []float64, cnt []int, k, d int, a *Arena) PlaneSet {
	var ps PlaneSet
	crossing := grow(&a.planes, len(normals)/d)[:0]
	m := 0 // position within the k-band
	c := 0 // offset of the next crossing plane's normal in the block
	for j, kind := range kinds {
		if cnt == nil || cnt[j] < k {
			switch kind {
			case planeBase:
				ps.Base++
			case planeCross:
				crossing = append(crossing, geom.NewUnitHyperplane(normals[c:c+d:c+d], m))
			}
			m++
		}
		if kind == planeCross {
			c += d
		}
	}
	ps.Crossing = crossing
	return ps
}

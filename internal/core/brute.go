package core

import (
	"context"
	"fmt"
	"sort"

	"rrq/internal/geom"
	"rrq/internal/vec"
)

// BruteForce2D solves the d = 2 case exactly by enumerating every crossing
// of the utility segment and counting negative half-spaces at each
// partition midpoint directly. O(n²); reference implementation for tests.
func BruteForce2D(pts []vec.Vec, q Query) (*Region, error) {
	r, _, err := BruteForce2DContext(context.Background(), pts, q)
	return r, err
}

// BruteForce2DContext is BruteForce2D under a context with work counters;
// cancellation is observed once per enumerated partition.
func BruteForce2DContext(ctx context.Context, pts []vec.Vec, q Query) (*Region, Stats, error) {
	if q.Q.Dim() != 2 {
		return nil, Stats{}, fmt.Errorf("core: BruteForce2D requires d = 2, got %d", q.Q.Dim())
	}
	if err := ValidateInstance(pts, q); err != nil {
		return nil, Stats{}, err
	}
	return brute2DSolve(ctx, pts, q, nil)
}

// brute2DSolve is the 2-d enumeration body shared by the validated entry
// points; store, when non-nil, serves the (read-only) classified plane set
// from shared storage.
func brute2DSolve(ctx context.Context, pts []vec.Vec, q Query, store *planeStore) (*Region, Stats, error) {
	var st Stats
	if q.Q.Dim() != 2 {
		return nil, st, fmt.Errorf("core: BruteForce2D requires d = 2, got %d", q.Q.Dim())
	}
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	// The oracle owns its planes (a fresh arena, never the pool), so it
	// shares no scratch with the solvers it checks.
	ps := store.planes(pts, q, &Arena{}, check.reg)
	st.PlanesBuilt = len(ps.Crossing)
	k := ps.KEff(q.K)
	if k <= 0 {
		return EmptyRegion(2), st, nil
	}
	// Every crossing plane enters the enumeration; nothing is pruned.
	st.PlanesInserted = st.PlanesBuilt
	cuts := []float64{0, 1}
	for _, h := range ps.Crossing {
		w := h.Normal
		cuts = append(cuts, w[1]/(w[1]-w[0]))
	}
	sort.Float64s(cuts)

	var out [][2]float64
	for i := 0; i+1 < len(cuts); i++ {
		if check.Stop() {
			return nil, st, check.Err()
		}
		a, b := cuts[i], cuts[i+1]
		if b-a <= geom.Tol {
			continue
		}
		mid := (a + b) / 2
		u := vec.Of(mid, 1-mid)
		neg := 0
		for _, h := range ps.Crossing {
			if h.Eval(u) < 0 {
				neg++
			}
		}
		if neg < k {
			out = append(out, [2]float64{a, b})
		}
	}
	merged := MergeIntervals(out)
	st.Pieces = len(merged)
	if len(merged) == 0 {
		return EmptyRegion(2), st, nil
	}
	return NewIntervalRegion(merged), st, nil
}

// BruteForceND solves RRQ exactly in any dimension by materializing the
// full arrangement: every crossing plane splits every cell, with no
// pruning, reduction or laziness. Exponential in the number of planes;
// guarded by maxPlanes and intended purely as a test oracle.
func BruteForceND(pts []vec.Vec, q Query, maxPlanes int) (*Region, error) {
	r, _, err := BruteForceNDContext(context.Background(), pts, q, maxPlanes)
	return r, err
}

// BruteForceNDContext is BruteForceND under a context with work counters;
// cancellation is observed with an amortized check per cell/plane pair.
func BruteForceNDContext(ctx context.Context, pts []vec.Vec, q Query, maxPlanes int) (*Region, Stats, error) {
	if err := ValidateInstance(pts, q); err != nil {
		return nil, Stats{}, err
	}
	return bruteNDSolve(ctx, pts, q, maxPlanes, nil)
}

// bruteNDSolve is the arrangement-materializing body shared by the
// validated entry points; store, when non-nil, serves the (read-only)
// classified plane set from shared storage.
func bruteNDSolve(ctx context.Context, pts []vec.Vec, q Query, maxPlanes int, store *planeStore) (*Region, Stats, error) {
	var st Stats
	d := q.Q.Dim()
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	// The region's cells keep the plane normals, so they must live in
	// storage the solve owns: a fresh arena, never the pool.
	ps := store.planes(pts, q, &Arena{}, check.reg)
	st.PlanesBuilt = len(ps.Crossing)
	if len(ps.Crossing) > maxPlanes {
		return nil, st, fmt.Errorf("core: brute force limited to %d planes, have %d", maxPlanes, len(ps.Crossing))
	}
	k := ps.KEff(q.K)
	if k <= 0 {
		return EmptyRegion(d), st, nil
	}
	type entry struct {
		cell *geom.Cell
		neg  int
	}
	cells := []entry{{cell: geom.NewSimplex(d)}}
	for _, h := range ps.Crossing {
		st.PlanesInserted++
		next := cells[:0:0]
		for _, e := range cells {
			if check.Stop() {
				return nil, st, check.Err()
			}
			switch e.cell.Relation(h) {
			case geom.RelNeg:
				next = append(next, entry{e.cell, e.neg + 1})
			case geom.RelPos:
				next = append(next, e)
			case geom.RelCross:
				neg, pos := e.cell.Split(h)
				if neg != nil && pos != nil {
					st.Splits++
				}
				if neg != nil {
					next = append(next, entry{neg, e.neg + 1})
				}
				if pos != nil {
					next = append(next, entry{pos, e.neg})
				}
			}
		}
		cells = next
	}
	var out []*geom.Cell
	for _, e := range cells {
		if e.neg < k {
			out = append(out, e.cell)
		}
	}
	st.Pieces = len(out)
	if len(out) == 0 {
		return EmptyRegion(d), st, nil
	}
	return NewDisjointCellRegion(d, out), st, nil
}

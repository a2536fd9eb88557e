package core

import (
	"context"
	"fmt"
	"sort"

	"rrq/internal/geom"
	"rrq/internal/vec"
)

// BruteForceSolver is the exact reference solver, intended purely as a
// test oracle: in 2-d it enumerates every crossing of the utility segment
// and counts negative half-spaces at each partition midpoint directly
// (O(n²)); in higher dimensions it materializes the full arrangement —
// every crossing plane splits every cell, with no pruning, reduction or
// laziness — which is exponential in the number of planes and refused past
// MaxPlanes (default 64). Cancellation is observed once per enumerated
// partition, or with an amortized check per cell/plane pair.
type BruteForceSolver struct {
	MaxPlanes int
}

func (BruteForceSolver) Name() string { return "BruteForce" }

func (s BruteForceSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := prep.Validate(q); err != nil {
		return nil, Stats{}, err
	}
	if prep.Dim() == 2 {
		return brute2DSolve(ctx, prep, q)
	}
	maxPlanes := s.MaxPlanes
	if maxPlanes <= 0 {
		maxPlanes = 64
	}
	return bruteNDSolve(ctx, prep, q, maxPlanes)
}

// brute2DSolve is the 2-d crossing enumeration.
func brute2DSolve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	var st Stats
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	// The oracle owns its planes (never the pool), so it shares no scratch
	// with the solvers it checks.
	ps := prep.Planes(q, check)
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

// bruteNDSolve materializes the full arrangement.
func bruteNDSolve(ctx context.Context, prep *Prepared, q Query, maxPlanes int) (*Region, Stats, error) {
	var st Stats
	d := q.Q.Dim()
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	// The region's cells keep the plane normals, so they must live in
	// storage the solve owns, never the pool.
	ps := prep.Planes(q, check)
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

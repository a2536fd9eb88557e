package diffcheck

import (
	"math"

	"rrq/internal/core"
	"rrq/internal/geom"
	"rrq/internal/lp"
	"rrq/internal/vec"
)

// planeOracle is the membership ground truth: the half-space counting
// characterization of Lemma 3.5 evaluated directly on the classified plane
// arrangement. It mirrors the solvers' shared preprocessing — the same
// componentwise zero/base/crossing classification with geom.Tol, the same
// unit-normalized planes from geom.QueryPlane — but none of their region
// construction, so a disagreement isolates a bug in the geometric machinery
// (tree refinement, cell maintenance, LP cell trees) rather than in plane
// building.
//
// The classification is a deliberate copy of core's classifyPlane, not a
// call to it: this oracle is the reference every sweep compares the
// solvers against, so it must not share their code.
//
// Margins are measured against unit normals, so the boundary skip is
// scale-free: a plane with a tiny raw normal (q ≈ (1−ε)p) does not poison
// the margin of every sample the way raw utility differences would.
type planeOracle struct {
	d        int
	k        int
	base     int
	crossing []geom.Hyperplane
}

func newPlaneOracle(pts []vec.Vec, q core.Query) *planeOracle {
	d := q.Q.Dim()
	o := &planeOracle{d: d, k: q.K}
	scale := 1 - q.Eps
	for i, p := range pts {
		neg, pos := false, false
		for j := 0; j < d; j++ {
			x := q.Q[j] - scale*p[j]
			if x > geom.Tol {
				pos = true
			} else if x < -geom.Tol {
				neg = true
			}
		}
		switch {
		case !neg:
			// Never negative over U, including the degenerate zero normal:
			// contributes 0 everywhere.
		case !pos:
			o.base++
		default:
			h, ok := geom.QueryPlane(q.Q, p, q.Eps, i)
			if ok {
				o.crossing = append(o.crossing, h)
			}
		}
	}
	return o
}

// count returns the number of negative half-spaces containing u together
// with the smallest |u·ĥ| over the crossing planes (unit normals). By
// Lemma 3.5 u qualifies iff count < k; samples with margin below the
// harness threshold sit on a decision boundary and are skipped.
func (o *planeOracle) count(u vec.Vec) (count int, margin float64) {
	count = o.base
	margin = math.Inf(1)
	for _, h := range o.crossing {
		v := h.Eval(u)
		if v < 0 {
			count++
		}
		if a := math.Abs(v); a < margin {
			margin = a
		}
	}
	return count, margin
}

// qualified reports membership with the margin attached.
func (o *planeOracle) qualified(u vec.Vec) (ok bool, margin float64) {
	c, m := o.count(u)
	return c < o.k, m
}

// lpAuditCell checks one returned region cell against the LP substrate:
// the cell's constraint system must be feasible over the simplex, and the
// LP witness plus the cell's own center must be qualified according to the
// counting oracle (boundary-marginal witnesses are skipped). A failure
// message is returned, or "" when the cell passes.
func lpAuditCell(o *planeOracle, c *geom.Cell, margin float64) string {
	cons := c.Constraints()
	normals := make([]vec.Vec, len(cons))
	signs := make([]int, len(cons))
	for i, con := range cons {
		normals[i] = con.H.Normal
		signs[i] = con.Sign
	}
	w, feasible := lp.SimplexFeasible(c.Dim(), normals, signs)
	if !feasible {
		return "cell constraint system is LP-infeasible"
	}
	for _, u := range []vec.Vec{w, c.Center()} {
		if ok, m := o.qualified(u); m >= margin && !ok {
			return "cell contains unqualified point " + u.String()
		}
	}
	return ""
}

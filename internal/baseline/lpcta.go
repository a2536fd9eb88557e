// Package baseline reimplements the two competitors the paper benchmarks
// against, adapted to the reverse regret query exactly as §6.1 describes:
//
//   - LP-CTA (Tang et al., SIGMOD 2017): a cell-tree arrangement whose
//     hyper-plane/partition relationship checks are performed by solving
//     linear programs, with the paper's designed hyper-planes replaced by
//     the RRQ hyper-planes h_{q,p}.
//   - PBA+ (Zhang et al., SIGMOD 2022, T-LevelIndex): a preprocessed
//     hierarchical rank-level index over the utility space; queries do a
//     top-down search comparing the query point against each partition's
//     ranked point.
//
// Both produce core.Region answers so the test suite can cross-validate
// them against Sweeping/E-PT/A-PC.
package baseline

import (
	"context"

	"rrq/internal/core"
	"rrq/internal/faultinject"
	"rrq/internal/geom"
	"rrq/internal/lp"
	"rrq/internal/vec"
)

// LPCTASolver solves RRQ exactly with the adapted LP-CTA algorithm. It
// takes its planes from core.Prepared.Planes, the plane source of every core
// solver (planes that never or always count are folded away, and a
// batch's plane store serves them), but applies none of E-PT's
// accelerations: no hyper-plane reduction, no insertion ordering, no sphere
// tests and no lazy splitting; every relationship check costs two LP
// solves. Cancellation and deadlines are observed with one amortized check
// every 64 LP solves (an LP per node visit is expensive, so a finer grain
// buys nothing). A metrics registry attached to ctx (see internal/obs)
// receives the solve's phase timings.
type LPCTASolver struct{}

// Name implements core.Solver.
func (LPCTASolver) Name() string { return "LP-CTA" }

// ctaNode is one node of the cell tree. Unlike the E-PT, cells are stored
// purely as constraint lists — relationship checks go through the LP
// solver, which is the cost profile the paper attributes to LP-CTA.
type ctaNode struct {
	normals  []vec.Vec
	signs    []int
	q        int
	children []*ctaNode
	invalid  bool
}

// Solve implements core.Solver.
func (LPCTASolver) Solve(ctx context.Context, prep *core.Prepared, q core.Query) (*core.Region, core.Stats, error) {
	var st core.Stats
	d := q.Q.Dim()
	if err := prep.Validate(q); err != nil {
		return nil, st, err
	}
	check := core.NewCtxChecker(ctx, 0x3f)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	planePhase := check.Phase("phase.lpcta.planes")
	defer planePhase()
	ps := prep.Planes(q, check)
	planePhase()
	st.PlanesBuilt = len(ps.Crossing)
	k := ps.KEff(q.K)
	if k <= 0 {
		return core.EmptyRegion(d), st, nil
	}

	insertPhase := check.Phase("phase.lpcta.insert")
	defer insertPhase()
	root := &ctaNode{}
	st.NodesCreated++
	cc := &ctaCtx{k: k, d: d, st: &st, check: check}
	for _, h := range ps.Crossing {
		st.PlanesInserted++
		ctaInsert(root, h, cc)
		if cc.err != nil {
			return nil, st, cc.err
		}
		if check.Failed() {
			return nil, st, check.Err()
		}
	}
	insertPhase()

	collectPhase := check.Phase("phase.lpcta.collect")
	defer collectPhase()
	var cells []*geom.Cell
	ctaCollect(root, d, &cells)
	st.Pieces = len(cells)
	if len(cells) == 0 {
		return core.EmptyRegion(d), st, nil
	}
	return core.NewDisjointCellRegion(d, cells), st, nil
}

// ctaCtx carries the shared insertion state, including the amortized
// context checker. err records a solver-level numerical failure (e.g. an
// injected LP fault) that must abort the whole solve rather than just
// invalidate one node.
type ctaCtx struct {
	k, d  int
	st    *core.Stats
	check *core.CtxChecker
	err   error
}

// ctaInsert inserts one hyper-plane top-down, checking relationships by LP.
// The minimum of u·w over the cell is solved first; the maximum is only
// needed when the minimum is negative.
func ctaInsert(n *ctaNode, h geom.Hyperplane, cc *ctaCtx) {
	if n.invalid || cc.err != nil || cc.check.Stop() {
		return
	}
	k, st := cc.k, cc.st
	lo, hi, feasible := ctaRange(n, h, cc)
	if !feasible {
		// Numerically collapsed cell: nothing to do.
		n.invalid = true
		return
	}
	switch {
	case lo >= -lpTol:
		// Cell inside the closed positive half-space: unaffected.
	case hi <= lpTol:
		// Cell inside the negative half-space.
		ctaCoverNeg(n, k)
	default:
		if len(n.children) > 0 {
			for _, c := range n.children {
				ctaInsert(c, h, cc)
			}
			return
		}
		neg := &ctaNode{
			normals: appendVec(n.normals, h.Normal),
			signs:   appendInt(n.signs, -1),
			q:       n.q + 1,
		}
		pos := &ctaNode{
			normals: appendVec(n.normals, h.Normal),
			signs:   appendInt(n.signs, +1),
			q:       n.q,
		}
		st.NodesCreated += 2
		st.Splits++
		if neg.q >= k {
			neg.invalid = true
		}
		n.children = []*ctaNode{neg, pos}
	}
}

// ctaRange computes min (and, only when needed, max) of u·Normal over the
// node's cell. hi is +Inf-like (lo+1 above the threshold) when the minimum
// alone already classifies the cell as positive.
func ctaRange(n *ctaNode, h geom.Hyperplane, cc *ctaCtx) (lo, hi float64, feasible bool) {
	minS, ok := ctaSolve(n, h, cc, false)
	if !ok {
		return 0, 0, false
	}
	if minS >= -lpTol {
		return minS, minS + 1, true
	}
	maxS, ok := ctaSolve(n, h, cc, true)
	if !ok {
		return 0, 0, false
	}
	return minS, maxS, true
}

func ctaSolve(n *ctaNode, h geom.Hyperplane, cc *ctaCtx, maximize bool) (float64, bool) {
	d, st := cc.d, cc.st
	if ferr := cc.check.Fault(faultinject.LPSolve); ferr != nil {
		// Injected LP failure: a numerical fault the solver cannot recover
		// from — typed so the serving layers can map it (HTTP 500).
		cc.err = &core.NumericalError{Solver: "LP-CTA", Err: ferr}
		return 0, false
	}
	st.LPSolves++
	obj := h.Normal
	aub := make([][]float64, 0, len(n.normals))
	bub := make([]float64, 0, len(n.normals))
	for j, w := range n.normals {
		row := make([]float64, d)
		for i, x := range w {
			row[i] = -float64(n.signs[j]) * x
		}
		aub = append(aub, row)
		bub = append(bub, 0)
	}
	ones := make([]float64, d)
	for i := range ones {
		ones[i] = 1
	}
	var s lp.Solution
	if maximize {
		s = lp.Maximize(obj, aub, bub, [][]float64{ones}, []float64{1})
	} else {
		s = lp.Minimize(obj, aub, bub, [][]float64{ones}, []float64{1})
	}
	if s.Status != lp.Optimal {
		return 0, false
	}
	return s.Objective, true
}

func ctaCoverNeg(n *ctaNode, k int) {
	if n.invalid {
		return
	}
	n.q++
	if n.q >= k {
		n.invalid = true
		return
	}
	for _, c := range n.children {
		ctaCoverNeg(c, k)
	}
}

// ctaCollect materializes the qualified leaves as geometric cells (the
// output construction step of CTA). Each constraint is clipped as a plane
// rebuilt from its stored unit normal, numbered by its position in the
// leaf's list. The rebuild re-normalizes an already-unit normal, which can
// move its last bits: LP-CTA's answers carry the re-normalized normals, not
// the served ones.
func ctaCollect(n *ctaNode, d int, out *[]*geom.Cell) {
	if n.invalid {
		return
	}
	if len(n.children) == 0 {
		cell := geom.NewSimplex(d)
		for i, w := range n.normals {
			h := geom.NewHyperplane(w, i)
			cell = cell.Clip(h, n.signs[i])
			if cell == nil {
				return
			}
		}
		*out = append(*out, cell)
		return
	}
	for _, c := range n.children {
		ctaCollect(c, d, out)
	}
}

const lpTol = 1e-9

func appendVec(xs []vec.Vec, x vec.Vec) []vec.Vec {
	out := make([]vec.Vec, len(xs)+1)
	copy(out, xs)
	out[len(xs)] = x
	return out
}

func appendInt(xs []int, x int) []int {
	out := make([]int, len(xs)+1)
	copy(out, xs)
	out[len(xs)] = x
	return out
}

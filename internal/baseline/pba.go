package baseline

import (
	"context"
	"errors"
	"fmt"

	"rrq/internal/core"
	"rrq/internal/geom"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// PBAIndex is the adapted PBA+ (T-LevelIndex) baseline: a rank-level tree
// over the utility space in which every node at depth i stores a partition
// together with the point that ranks i-th on it. Built once (to kmax
// levels), it answers any (q, k ≤ kmax, ε) query by a top-down search that
// never touches the dataset again. Materializing the rank arrangement level
// by level is the expensive preprocessing the paper reports (>10⁴ seconds
// at scale); the node budget makes that explosion explicit instead of
// silent.
type PBAIndex struct {
	dim    int
	kmax   int
	pts    []vec.Vec
	root   *pbaNode
	nextID int

	// Nodes is the number of tree nodes materialized.
	Nodes int
	// Clips counts hyper-plane clip operations during preprocessing, the
	// dominant cost unit; it is budgeted alongside Nodes.
	Clips    int
	maxClips int
	check    *core.CtxChecker
}

type pbaNode struct {
	cell     *geom.Cell
	point    int // index into pts of the point ranked at this depth; -1 at root
	depth    int
	children []*pbaNode
}

// ErrPBABudget is returned when preprocessing exceeds its node budget — the
// analogue of the paper omitting PBA+ results past 10⁴ seconds.
var ErrPBABudget = errors.New("baseline: PBA+ preprocessing exceeded its node budget")

// maxPBAVerts bounds the maintained vertex count of any cell during
// preprocessing; beyond it, clip cost grows quadratically out of any
// budget's reach.
const maxPBAVerts = 5000

// BuildPBA preprocesses pts into a rank-level index supporting queries with
// k ≤ kmax. Points outside the kmax-skyband can never appear in any top-kmax
// result and are pruned first (the same preprocessing the original applies).
// maxNodes caps index materialization; 0 means a default of 200000. The
// points are trusted to pass core.CheckPoints; a dimension below 2 is the
// *core.DataError of core.CheckDim.
func BuildPBA(pts []vec.Vec, kmax, maxNodes int) (*PBAIndex, error) {
	return BuildPBAContext(context.Background(), pts, kmax, maxNodes)
}

// BuildPBAContext bounds preprocessing by the context: a passed deadline
// aborts the build with core.ErrDeadline, cancellation with ctx.Err(),
// both observed with an amortized check per preprocessing clip. A metrics
// registry riding ctx times the "phase.pba.build" phase.
func BuildPBAContext(ctx context.Context, pts []vec.Vec, kmax, maxNodes int) (*PBAIndex, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("baseline: empty dataset")
	}
	d := pts[0].Dim()
	if err := core.CheckDim(d); err != nil {
		return nil, err
	}
	if kmax < 1 {
		return nil, fmt.Errorf("baseline: kmax %d < 1", kmax)
	}
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	band := skyband.KSkyband(pts, kmax)
	ix := &PBAIndex{
		dim:      d,
		kmax:     kmax,
		pts:      skyband.Select(pts, band),
		maxClips: 50 * maxNodes,
		check:    core.NewCtxChecker(ctx, 0x1ff),
	}
	ix.root = &pbaNode{cell: geom.NewSimplex(d), point: -1}
	ix.Nodes = 1
	remaining := make([]int, len(ix.pts))
	for i := range remaining {
		remaining[i] = i
	}
	buildPhase := ix.check.Phase("phase.pba.build")
	if err := ix.build(ix.root, remaining, maxNodes); err != nil {
		return nil, err
	}
	buildPhase()
	return ix, nil
}

// build expands node n by the argmax decomposition over remaining: one
// child per point that ranks first somewhere inside n.cell.
func (ix *PBAIndex) build(n *pbaNode, remaining []int, maxNodes int) error {
	if n.depth == ix.kmax || len(remaining) == 0 {
		return nil
	}
	// Only skyline points of the remaining set can rank first anywhere.
	// The skyline scan is real preprocessing work; charge it to the budget
	// so that huge instances fail fast instead of thrashing.
	ix.Clips += len(remaining)
	if ix.Clips > ix.maxClips {
		return ErrPBABudget
	}
	if ix.check.Stop() {
		return ix.check.Err()
	}
	cands := localSkyline(ix.pts, remaining)
	for _, p := range cands {
		cell := n.cell
		dead := false
		for _, other := range remaining {
			if other == p {
				continue
			}
			w := ix.pts[p].Sub(ix.pts[other])
			if w.Norm() < vec.Eps {
				// Exact duplicate: the smaller index represents the tie.
				if other < p {
					dead = true
					break
				}
				continue
			}
			ix.nextID++
			ix.Clips++
			if ix.Clips > ix.maxClips {
				return ErrPBABudget
			}
			if ix.check.Stop() {
				return ix.check.Err()
			}
			h := geom.NewHyperplane(w, ix.nextID)
			cell = cell.Clip(h, +1)
			if cell == nil {
				dead = true
				break
			}
			// Near-parallel rank planes can make the maintained vertex
			// superset explode (see geom.Cell); a cell that large makes a
			// single further clip slower than any time budget, so treat it
			// as the preprocessing blow-up it is.
			if cell.NumVertices() > maxPBAVerts {
				return ErrPBABudget
			}
		}
		if dead {
			continue
		}
		child := &pbaNode{cell: cell, point: p, depth: n.depth + 1}
		ix.Nodes++
		if ix.Nodes > maxNodes {
			return ErrPBABudget
		}
		n.children = append(n.children, child)
		if err := ix.build(child, without(remaining, p), maxNodes); err != nil {
			return err
		}
	}
	return nil
}

// localSkyline returns the members of idx whose points are not dominated by
// another member, via the sort-based skyline of the skyband package.
func localSkyline(pts []vec.Vec, idx []int) []int {
	sub := make([]vec.Vec, len(idx))
	for i, j := range idx {
		sub[i] = pts[j]
	}
	sky := skyband.Skyline(sub)
	out := make([]int, len(sky))
	for i, s := range sky {
		out[i] = idx[s]
	}
	return out
}

func without(xs []int, x int) []int {
	out := make([]int, 0, len(xs)-1)
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// QueryContext answers an RRQ with the prebuilt index: a top-down search
// that compares the query point against each partition's ranked point. A
// partition already dominated by q at some level is returned whole without
// refinement (which is why PBA+ gets faster as ε grows); at depth k the
// partition is clipped by h_{q,p_k}. The search polls ctx once per visited
// node on an amortized cadence: a canceled or expired context aborts it
// with context.Canceled or core.ErrDeadline, and a work budget riding on
// ctx (core.ContextWithWorkBudget) with a *core.BudgetError. A metrics
// registry attached to ctx (see internal/obs) times the "phase.pba.search"
// phase and maintains pba.queries / pba.nodes_visited / pba.planes_built
// counters.
func (ix *PBAIndex) QueryContext(ctx context.Context, q core.Query) (*core.Region, error) {
	if err := q.Validate(ix.dim); err != nil {
		return nil, err
	}
	if q.K > ix.kmax {
		return nil, fmt.Errorf("baseline: query k=%d exceeds index kmax=%d", q.K, ix.kmax)
	}
	check := core.NewCtxChecker(ctx, 0x3ff)
	reg := obs.RegistryFrom(ctx)
	reg.Counter("pba.queries").Inc()
	if q.K > len(ix.pts) {
		// Fewer points than k: every utility vector qualifies.
		return core.NewCellRegion(ix.dim, []*geom.Cell{geom.NewSimplex(ix.dim)}), nil
	}
	searchPhase := check.Phase("phase.pba.search")
	s := pbaSearch{q: q, check: check}
	ix.search(ix.root, &s)
	searchPhase()
	reg.Counter("pba.nodes_visited").Add(int64(s.visited))
	reg.Counter("pba.planes_built").Add(int64(s.planesBuilt))
	if err := check.Err(); err != nil {
		return nil, err
	}
	if len(s.out) == 0 {
		return core.EmptyRegion(ix.dim), nil
	}
	return core.NewDisjointCellRegion(ix.dim, s.out), nil
}

// pbaSearch is the state of one query's top-down search: the query, its
// cancellation checker, the qualified cells collected so far and the work
// counters.
type pbaSearch struct {
	q                    core.Query
	check                *core.CtxChecker
	out                  []*geom.Cell
	visited, planesBuilt int
}

// search collects n's qualified cells into s.out. It stops descending once
// s.check trips; the caller reports check.Err().
func (ix *PBAIndex) search(n *pbaNode, s *pbaSearch) {
	if s.check.Stop() {
		return
	}
	s.visited++
	q := s.q
	if n.point >= 0 {
		// Deliberately not core's classifyPlane: the search needs the
		// plane's relation to this node's cell, not to all of U, and only
		// excludes the numerically zero normal (a norm test, not the
		// component signs) before building it.
		w := q.Q.AddScaled(-(1 - q.Eps), ix.pts[n.point])
		if w.Norm() < vec.Eps {
			// q sits exactly on the scaled point: boundary, treat as
			// qualified at this level and keep descending to level k.
			if n.depth == q.K {
				s.out = append(s.out, n.cell)
				return
			}
		} else {
			s.planesBuilt++
			h := geom.NewHyperplane(w, 1<<30+n.point)
			rel := n.cell.Relation(h)
			if rel == geom.RelPos {
				// q beats this level's point everywhere on the cell, so it
				// beats every deeper level too: accept without refinement.
				s.out = append(s.out, n.cell)
				return
			}
			if n.depth == q.K {
				if rel != geom.RelNeg {
					if c := n.cell.Clip(h, +1); c != nil {
						s.out = append(s.out, c)
					}
				}
				return
			}
		}
	}
	for _, c := range n.children {
		ix.search(c, s)
	}
}

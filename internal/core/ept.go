package core

import (
	"context"

	"rrq/internal/faultinject"
	"rrq/internal/geom"
	"rrq/internal/pile"
)

// eptNode is one node of the partition tree (paper §5.1.1). Leaves carry
// the lazy hyper-plane set H(N); internal nodes carry two children that
// partition the node's cell.
type eptNode struct {
	cell     *geom.Cell
	q        int     // negative half-spaces covering the cell
	lazy     []int32 // H(N) as indices into eptTree.planes; leaves only
	children [2]*eptNode
	invalid  bool
}

func (n *eptNode) leaf() bool { return n.children[0] == nil }

// eptSlab is the storage an E-PT solve builds its partition tree in:
// its cells, its nodes and its lazy plane lists. It lives in the solve's
// Arena, so a warm solve refines its tree without allocating; the cells
// that answer the query are compacted out of it at collect time.
type eptSlab struct {
	cells geom.Slab
	nodes pile.Pile[eptNode]
	lazy  pile.Pile[int32]
}

func (s *eptSlab) reset() {
	s.cells.Reset()
	s.nodes.Reset()
	s.lazy.Reset()
}

// keep reports whether the slab goes back to the pool with its arena:
// whether the solve since the last reset built at most maxPooledSlabBytes
// into it (see pile.Pile.Used).
func (s *eptSlab) keep() bool {
	return s.cells.Used()+s.nodes.Used()+s.lazy.Used() <= maxPooledSlabBytes
}

func (s *eptSlab) node() *eptNode { return &s.nodes.Take(1)[0] }

// push appends plane i to a lazy list, moving the list to a larger run of
// the slab when its own is full.
func (s *eptSlab) push(l []int32, i int32) []int32 {
	if len(l) == cap(l) {
		grown := s.lazy.Take(max(2*len(l), 4))
		l = grown[:copy(grown, l)]
	}
	return append(l, i)
}

// clone copies a lazy list into a run of its own.
func (s *eptSlab) clone(l []int32) []int32 {
	out := s.lazy.Take(len(l))
	copy(out, l)
	return out
}

// EPTOptions disables individual accelerations of §5.1.2, for the ablation
// benchmarks. The zero value runs the full algorithm.
type EPTOptions struct {
	// NoReduction skips the Lemma 5.2 hyper-plane reduction.
	NoReduction bool
	// NoOrdering inserts hyper-planes in input order instead of by W(h).
	NoOrdering bool
	// NoLazySplit splits leaves eagerly on every crossing plane instead of
	// deferring through H(N).
	NoLazySplit bool
}

// EPTSolver solves RRQ exactly in any dimension via the partition tree
// (paper §5.1, Algorithm 2). The four published accelerations are applied:
// hyper-plane reduction (Lemma 5.2), W(h)-descending insertion order,
// sphere-accelerated relationship checks (inside geom.Cell.Relation) and
// lazy splitting with H(N) refinement; Opt disables them one by one for
// the ablations. Cancellation and deadlines are observed with one
// amortized check every few thousand node visits, so a Solve aborts within
// one check interval of the context firing. A metrics registry attached to
// ctx (see internal/obs) receives the solve's phase timings.
type EPTSolver struct {
	Opt EPTOptions
}

func (EPTSolver) Name() string { return "E-PT" }

func (s EPTSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := prep.Validate(q); err != nil {
		return nil, Stats{}, err
	}
	a := getArena()
	defer putArena(a)
	return eptSolve(ctx, prep, q, s.Opt, a)
}

// eptSolve is the E-PT body, run in the scratch arena a. The plane set's
// headers are a's own, so the reduction and PackNormals may reorder and
// rebind them in place; its normals may be a plane group's, and are only
// read. The tree's constraint records point at these headers, which stay
// in a for the whole solve; the answer's cells are compacted out of a with
// their own copy of each plane they keep.
func eptSolve(ctx context.Context, prep *Prepared, q Query, opt EPTOptions, a *Arena) (*Region, Stats, error) {
	var st Stats
	d := q.Q.Dim()
	check := &a.check
	check.reset(ctx, 0xfff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	planePhase := check.Phase("phase.ept.planes")
	defer planePhase()
	ps := prep.planes(q, a, check.reg)
	st.PlanesBuilt = len(ps.Crossing)
	k := ps.KEff(q.K)
	if k <= 0 {
		planePhase()
		return EmptyRegion(d), st, nil
	}

	planes := ps.Crossing
	if !opt.NoReduction || !opt.NoOrdering {
		planes = reduceAndOrderPlanesOpt(ps.Crossing, k, opt.NoReduction, opt.NoOrdering, a, check)
		if check.Failed() {
			return nil, st, check.Err()
		}
	}
	// Repack the surviving normals into one flat block of the arena: every
	// relation test of the insert phase streams over these, and after the
	// reduction the per-plane normals are scattered.
	geom.PackNormals(planes, grow(&a.packed, len(planes)*d))
	st.PlanesInserted = len(planes)
	planePhase()

	insertPhase := check.Phase("phase.ept.insert")
	defer insertPhase()
	st.NodesCreated++
	t := &eptTree{planes: planes, k: k, eager: opt.NoLazySplit, stats: st, check: check, slab: &a.ept}
	t.root = a.ept.node()
	t.root.cell = geom.NewSimplexIn(d, &a.ept.cells)
	for i := range planes {
		t.insert(t.root, int32(i))
		if check.Failed() {
			return nil, t.stats, check.Err()
		}
	}
	st = t.stats
	insertPhase()

	collectPhase := check.Phase("phase.ept.collect")
	defer collectPhase()
	leaves := t.collect(t.root, a.leaves[:0])
	a.leaves = leaves
	st.Pieces = len(leaves)
	if len(leaves) == 0 {
		return EmptyRegion(d), st, nil
	}
	// The leaves, their planes and the planes' packed normals live in the
	// arena, which the next solve reuses: the answer takes copies of its
	// own.
	cells := geom.Compact(leaves)
	clear(leaves)
	return NewDisjointCellRegion(d, cells), st, nil
}

// reduceAndOrderPlanesOpt applies the hyper-plane reduction of Lemma 5.2
// and the W(h)-descending insertion order of §5.1.2, optionally skipping
// either for ablation runs.
//
// h_i⁻ ⊆ h_j⁻ when the unit normal of h_i dominates (component-wise ≥,
// somewhere >) that of h_j. A plane whose negative half-space is covered by
// ≥ k other negative half-spaces — whose unit normal dominates ≥ k others —
// is redundant: the reduction is the k-skyband of the negated unit normals.
//
// Every working buffer is drawn from the solve's arena; the returned slice
// aliases arena memory, and the tree's records point into it until the
// answer is compacted.
//
// Both counts — the normals each normal dominates, for the reduction, and
// the normals dominating it, W(h), for the order — come from the arena's
// skyband.Counter over the unit normals. It polls check about once every
// skyband.StopStride units of work, so a deadline, cancellation or work
// budget stops the reduction within one amortized check interval; the
// result is then nil and check.Failed() reports the abort.
func reduceAndOrderPlanesOpt(planes []geom.Hyperplane, k int, noReduce, noOrder bool, a *Arena, check *CtxChecker) []geom.Hyperplane {
	m := len(planes)
	if m == 0 {
		return nil
	}
	cnt := &a.dom
	units := grow(&a.units, m)
	for i, h := range planes {
		units[i] = h.Normal
	}
	if !cnt.Reset(units, check) {
		return nil
	}
	keepIdx := grow(&a.keep, m)
	if noReduce {
		for i := range keepIdx {
			keepIdx[i] = i
		}
	} else {
		covered := grow(&a.w, m)
		if !cnt.Dominated(nil, covered) {
			return nil
		}
		keepIdx = keepIdx[:0]
		for i, c := range covered {
			if c < k {
				keepIdx = append(keepIdx, i)
			}
		}
	}
	kept := grow(&a.kept, len(keepIdx))
	for out, i := range keepIdx {
		kept[out] = planes[i]
	}
	if noOrder {
		return kept
	}
	// W(h): the number of negative half-spaces covered by h⁻. By Lemma 5.2,
	// v' ≥ v component-wise means h'⁻ ⊆ h⁻, so W counts the planes whose
	// unit normal dominates h's. Inserting in descending W order lets the
	// widest negative half-spaces raise counters first, so invalid nodes
	// are discovered early.
	w := grow(&a.w, len(keepIdx))
	if !cnt.Dominators(keepIdx, w) {
		return nil
	}
	order := grow(&a.order, len(kept))
	for i := range order {
		order[i] = i
	}
	sortPlaneOrder(order, w)
	out := grow(&a.ordered, len(kept))
	for i, idx := range order {
		out[i] = kept[idx]
	}
	return out
}

// sortPlaneOrder sorts order by descending W, ties by ascending index —
// the same total order the previous sort.Slice comparator produced, via a
// hand-rolled quicksort (plain functions, not closures) that allocates
// nothing. The comparator is a strict total order (indices are unique), so
// any correct sort yields the identical permutation.
func sortPlaneOrder(order, w []int) {
	for len(order) > 12 {
		mid := len(order) / 2
		hi := len(order) - 1
		if planeOrderLess(w, order[mid], order[0]) {
			order[mid], order[0] = order[0], order[mid]
		}
		if planeOrderLess(w, order[hi], order[0]) {
			order[hi], order[0] = order[0], order[hi]
		}
		if planeOrderLess(w, order[mid], order[hi]) {
			order[mid], order[hi] = order[hi], order[mid]
		}
		pivot := order[hi]
		p := 0
		for j := 0; j < hi; j++ {
			if planeOrderLess(w, order[j], pivot) {
				order[p], order[j] = order[j], order[p]
				p++
			}
		}
		order[p], order[hi] = order[hi], order[p]
		if p < len(order)-p-1 {
			sortPlaneOrder(order[:p], w)
			order = order[p+1:]
		} else {
			sortPlaneOrder(order[p+1:], w)
			order = order[:p]
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && planeOrderLess(w, order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}

// planeOrderLess is the insertion-order comparator: descending W, ties by
// ascending plane index.
func planeOrderLess(w []int, a, b int) bool {
	if w[a] != w[b] {
		return w[a] > w[b]
	}
	return a < b
}

// eptTree is the partition tree of one solve, with the bookkeeping its
// refinement updates: the solve's Stats, its cancellation checker and the
// slab its nodes, cells and lazy lists are built in.
type eptTree struct {
	root   *eptNode
	planes []geom.Hyperplane // in insertion order; lazy lists index it
	k      int
	eager  bool  // ablation: split on every crossing plane immediately
	stats  Stats // a value, so the solve's Stats stay off the heap
	check  *CtxChecker
	slab   *eptSlab
}

// needSplit is the lazy-split trigger; in eager mode any pending plane
// forces a split.
func (t *eptTree) needSplit(n *eptNode) bool {
	if t.eager {
		return len(n.lazy) > 0 || n.q >= t.k
	}
	return n.q+len(n.lazy) >= t.k
}

// insert performs the top-down insertion of Algorithm 2.
func (t *eptTree) insert(n *eptNode, h int32) {
	if n.invalid || t.check.Stop() {
		return
	}
	switch n.cell.Relation(t.planes[h]) {
	case geom.RelNeg:
		t.coverNeg(n)
	case geom.RelPos:
		// Case 2: nothing in this subtree is affected.
	case geom.RelCross:
		if !n.leaf() {
			for _, c := range n.children {
				t.insert(c, h)
			}
			return
		}
		n.lazy = t.slab.push(n.lazy, h)
		if t.needSplit(n) {
			t.lazySplit(n)
		}
	}
}

// coverNeg applies a covering negative half-space to n's whole subtree
// (Case 1, with the Lemma 5.3 shortcut: descendants inherit the coverage
// without re-running geometric checks).
func (t *eptTree) coverNeg(n *eptNode) {
	if n.invalid || t.check.Stop() {
		return
	}
	n.q++
	if n.q >= t.k {
		n.invalid = true
		return
	}
	if !n.leaf() {
		for _, c := range n.children {
			t.coverNeg(c)
		}
		return
	}
	if n.q+len(n.lazy) >= t.k {
		t.lazySplit(n)
	}
}

// lazySplit pops hyper-planes from H(N) and splits the leaf until the
// qualification budget is respected again (paper §5.1.2, Lazy_Split +
// Refine). The loop also absorbs numerically degenerate splits where one
// side vanishes.
func (t *eptTree) lazySplit(n *eptNode) {
	for !n.invalid && n.leaf() && t.needSplit(n) && !t.check.Stop() {
		if len(n.lazy) == 0 {
			// q ≥ k without pending planes: disqualified outright.
			n.invalid = true
			return
		}
		if err := t.check.Fault(faultinject.EPTSplit); err != nil {
			// An error fault at a site with no error return: poison the
			// checker so the solve aborts with it (panic faults unwind from
			// Fault itself and are recovered at the serving layer).
			t.check.fail(err)
			return
		}
		h := &t.planes[n.lazy[0]]
		n.lazy = n.lazy[1:]
		neg, pos := n.cell.SplitInto(h, &t.slab.cells)
		switch {
		case neg == nil && pos == nil:
			// Degenerate sliver; drop the plane.
		case neg == nil:
			// The cell is effectively on the positive side; drop the plane.
			n.cell = pos
		case pos == nil:
			// The cell is effectively on the negative side.
			n.cell = neg
			n.q++
			if n.q >= t.k {
				n.invalid = true
				return
			}
		default:
			t.stats.Splits++
			left, right := t.slab.node(), t.slab.node()
			left.cell, left.q, left.lazy = neg, n.q+1, t.slab.clone(n.lazy)
			right.cell, right.q, right.lazy = pos, n.q, n.lazy
			t.stats.NodesCreated += 2
			n.children = [2]*eptNode{left, right}
			n.lazy = nil
			t.refine(left)
			t.refine(right)
			return
		}
	}
}

// refine re-checks a fresh child's inherited H(N) against its smaller cell,
// dropping planes that no longer cross it and folding covering negative
// half-spaces into the counter, then re-applies the lazy-split trigger.
func (t *eptTree) refine(n *eptNode) {
	if n.q >= t.k {
		n.invalid = true
		return
	}
	kept := n.lazy[:0] // each child owns its list: lazySplit cloned one
	for _, h := range n.lazy {
		switch n.cell.Relation(t.planes[h]) {
		case geom.RelNeg:
			n.q++
			if n.q >= t.k {
				n.invalid = true
				return
			}
		case geom.RelPos:
			// Dropped.
		case geom.RelCross:
			kept = append(kept, h)
		}
	}
	n.lazy = kept
	if t.needSplit(n) {
		t.lazySplit(n)
	}
}

// collect appends to out the qualified leaf cells: valid leaves with
// Q(N) + |H(N)| < k, whose entire partition qualifies (paper §5.1.2).
func (t *eptTree) collect(n *eptNode, out []*geom.Cell) []*geom.Cell {
	if n.invalid {
		return out
	}
	if n.leaf() {
		if n.q+len(n.lazy) < t.k {
			out = append(out, n.cell)
		}
		return out
	}
	for _, c := range n.children {
		out = t.collect(c, out)
	}
	return out
}

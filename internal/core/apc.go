package core

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"rrq/internal/geom"
	"rrq/internal/obs"
	"rrq/internal/vec"
)

// APCOptions configures the approximate solver.
type APCOptions struct {
	// Samples is the number N of utility vectors to draw. When ≤ 0 the
	// paper's default N = 10·(d−1) is used (§6.3).
	Samples int
	// Seed drives the deterministic sampler; ignored when Rng is set.
	Seed int64
	// Rng, when non-nil, supplies the randomness. Must be nil when the
	// solver is shared across goroutines (SolveBatch).
	Rng *rand.Rand
	// Workers parallelizes the per-sample utility scans (the O(N·n·d)
	// phase). ≤ 1 runs serially. The result is identical for any worker
	// count: samples are drawn up front and merged in sample order.
	Workers int
}

// SampleSizeFor returns the sample size of Lemma 5.10 that finds every
// qualified partition of volume ratio > rho with confidence 1−delta:
// N = (d + ln(1/δ)) / ρ².
func SampleSizeFor(rho, delta float64, d int) int {
	if rho <= 0 || rho >= 1 || delta <= 0 || delta >= 1 {
		return 0
	}
	return int(math.Ceil((float64(d) + math.Log(1/delta)) / (rho * rho)))
}

// APC solves RRQ approximately by progressive construction (paper §5.2,
// Algorithm 3): sample utility vectors, keep the qualified ones, merge
// samples whose positive point-sets nest (Lemma 5.9), and build one
// qualified partition per surviving sample (Lemma 5.7), skipping samples
// that land in an already-built partition (Lemma 5.8). Every returned
// partition is qualified in full; partitions never hit by a sample may be
// missed, which is the approximation.
func APC(pts []vec.Vec, q Query, opt APCOptions) (*Region, error) {
	r, _, err := APCContext(context.Background(), pts, q, opt)
	return r, err
}

// APCContext runs A-PC under a context: the sample-classification and
// partition-construction loops observe cancellation with amortized checks.
// A passed deadline surfaces as ErrDeadline, cancellation as ctx.Err().
// Trace hooks and metrics registries attached to ctx (see internal/obs)
// receive the solve's work events and phase timings.
func APCContext(ctx context.Context, pts []vec.Vec, q Query, opt APCOptions) (*Region, Stats, error) {
	var st Stats
	d := q.Q.Dim()
	if err := ValidateInstance(pts, q); err != nil {
		return nil, st, err
	}
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	rng := opt.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(opt.Seed))
	}
	n := opt.Samples
	if n <= 0 {
		n = 10 * (d - 1)
	}
	st.Samples = n
	classifyPhase := check.Phase("phase.apc.classify")
	// Abort net: the closer is idempotent, so a cancellation or worker
	// failure mid-classify still closes the phase exactly once.
	defer classifyPhase()

	// Sample and keep qualified utility vectors with their D⁻ sets. D⁻ has
	// fewer than k elements for a qualified sample, so the sets stay tiny
	// and D⁺ ⊆ D⁺' tests reduce to superset tests on D⁻.
	//
	// Each kept sample carries two roles of its D⁻ set: orig stays fixed
	// and defines D⁺ = complement(orig) for the subset tests and the
	// positive constraints, while negC (initially orig) is the set used
	// for the negative constraints and may shrink through merges. Points
	// in orig \ negC are left unconstrained, which is precisely how the
	// merged partition becomes the union of the samples' partitions.
	type sample struct {
		u    vec.Vec
		orig []int32 // D⁻ at sampling time (sorted)
		negC []int32 // D⁻ used for negative constraints after merging
	}
	dropped := apcDroppedPlanes(pts, q)
	// Draw all samples up front so the answer does not depend on the
	// worker count, then classify them (the O(N·n·d) phase), optionally in
	// parallel.
	us := make([]vec.Vec, n)
	for i := range us {
		us[i] = vec.RandSimplex(rng, d)
	}
	classify := func(u vec.Vec) (neg []int32, ok bool) {
		return apcClassify(pts, q, dropped, u)
	}
	negs := make([][]int32, n)
	oks := make([]bool, n)
	if opt.Workers > 1 {
		err := parallelFor(ctx, opt.Workers, n, 0x3f, func(i int) {
			negs[i], oks[i] = classify(us[i])
		})
		if err != nil {
			return nil, st, err
		}
	} else {
		for i, u := range us {
			if check.Stop() {
				return nil, st, check.Err()
			}
			negs[i], oks[i] = classify(u)
		}
	}
	classifyPhase()
	check.Emit(obs.EvSampleClassified, n)
	constructPhase := check.Phase("phase.apc.construct")
	defer constructPhase()
	var kept []sample
	for i, u := range us {
		if oks[i] {
			kept = append(kept, sample{u: u, orig: negs[i], negC: negs[i]})
		}
	}
	if len(kept) == 0 {
		check.Emit(obs.EvPieceEmitted, 0)
		return emptyRegion(d), st, nil
	}

	// Refinement (Algorithm 3 lines 6–12): D⁺_{u1} ⊆ D⁺_{u2} iff
	// D⁻_{u2} ⊆ D⁻_{u1}. Keep u1 and narrow its negative set to
	// negC_{u1} ∩ negC_{u2}; the partition built from (D⁺_{u1}, negC)
	// then contains every partition the survivor has absorbed (Lemma 5.9).
	// Narrowing by intersection rather than overwriting matters once a
	// survivor absorbs two samples with incomparable D⁻ sets: overwriting
	// would re-impose the first sample's negative constraints and drop its
	// partition from the region.
	alive := make([]bool, len(kept))
	for i := range alive {
		alive[i] = true
	}
	for i := range kept {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < len(kept); j++ {
			if !alive[j] {
				continue
			}
			switch {
			case subsetInt32(kept[j].orig, kept[i].orig): // D⁺_i ⊆ D⁺_j
				kept[i].negC = intersectInt32(kept[i].negC, kept[j].negC)
				alive[j] = false
			case subsetInt32(kept[i].orig, kept[j].orig): // D⁺_j ⊆ D⁺_i
				kept[j].negC = intersectInt32(kept[j].negC, kept[i].negC)
				alive[i] = false
			}
			if !alive[i] {
				break
			}
		}
	}

	// Progressive construction with the Lemma 5.8 dedup.
	var cells []*geom.Cell
	for i, s := range kept {
		if !alive[i] {
			continue
		}
		already := false
		for _, c := range cells {
			if c.Contains(s.u) {
				already = true
				break
			}
		}
		if already {
			continue
		}
		c, err := buildPartition(pts, q, s.u, s.orig, s.negC, check)
		if err != nil {
			return nil, st, err
		}
		if c != nil {
			cells = append(cells, c)
		}
	}
	st.Pieces = len(cells)
	check.Emit(obs.EvPieceEmitted, st.Pieces)
	if len(cells) == 0 {
		return emptyRegion(d), st, nil
	}
	return newCellRegion(d, cells), st, nil
}

// apcDroppedPlanes classifies each plane's normal component-wise up front,
// mirroring BuildPlanes: a plane that is never negative over U — including
// the degenerate zero normal from q = (1−ε)p — contributes 0 to every
// sample's D⁻ by the system-wide contract (see QueryPlane). Deciding such
// planes by the raw utility difference instead would let rounding noise
// disqualify samples the exact solvers accept.
func apcDroppedPlanes(pts []vec.Vec, q Query) []bool {
	d := q.Q.Dim()
	scale := 1 - q.Eps
	dropped := make([]bool, len(pts))
	for j, p := range pts {
		neg := false
		for x := 0; x < d; x++ {
			if q.Q[x]-scale*p[x] < -geom.Tol {
				neg = true
				break
			}
		}
		dropped[j] = !neg
	}
	return dropped
}

// apcClassify computes one sample's D⁻ set (ascending point indices, by
// construction): the points beating (1−ε)-scaled q under u, excluding the
// planes dropped by apcDroppedPlanes. ok is false when the set reaches k —
// the sample is unqualified and its partial D⁻ is discarded.
func apcClassify(pts []vec.Vec, q Query, dropped []bool, u vec.Vec) (neg []int32, ok bool) {
	scale := 1 - q.Eps
	fq := u.Dot(q.Q)
	for j, p := range pts {
		if dropped[j] {
			continue
		}
		if scale*u.Dot(p) > fq {
			neg = append(neg, int32(j))
			if len(neg) >= q.K {
				return nil, false
			}
		}
	}
	return neg, true
}

// buildPartition intersects the simplex with h⁻ for every point in negC,
// h⁺ for every point outside orig, and leaves points in orig \ negC
// unconstrained (paper §5.2.1–5.2.2). Planes that do not constrain the
// current cell are skipped by Clip via the relation tests, so the cell
// description stays small.
func buildPartition(pts []vec.Vec, q Query, u vec.Vec, orig, negC []int32, check *CtxChecker) (*geom.Cell, error) {
	d := q.Q.Dim()
	scale := 1 - q.Eps
	cell := geom.NewSimplex(d)
	inOrig := make(map[int32]bool, len(orig))
	for _, j := range orig {
		inOrig[j] = true
	}
	isNeg := make(map[int32]bool, len(negC))
	for _, j := range negC {
		isNeg[j] = true
	}
	// One scratch normal reused across points; NewHyperplane stores a
	// normalized copy.
	w := vec.New(d)
	for j, p := range pts {
		if check.Stop() {
			return nil, check.Err()
		}
		sign := +1
		switch {
		case isNeg[int32(j)]:
			sign = -1
		case inOrig[int32(j)]:
			continue // merged away: left unconstrained
		}
		for x := range w {
			w[x] = q.Q[x] - scale*p[x]
		}
		if w.Norm() < vec.Eps {
			// Boundary-degenerate plane (q = (1−ε)p): the whole space lies on
			// it. Per the QueryPlane contract it contributes 0 to the <k tally
			// everywhere, so it constrains nothing; classify() never put it in
			// a D⁻ set either, keeping both tallies consistent.
			continue
		}
		h := geom.NewHyperplane(w, j)
		cell = cell.Clip(h, sign)
		if cell == nil {
			return nil, nil // numerically empty (sample sat on a boundary)
		}
		if cell.NumVertices() > maxAPCVerts {
			// Vertex-superset blow-up: constructing this partition would
			// dominate the run. Dropping it keeps the answer sound (A-PC
			// may under-report) at a small recall cost.
			return nil, nil
		}
	}
	return cell, nil
}

// maxAPCVerts bounds the maintained vertex count of a partition under
// construction; beyond it a single clip costs O(V²) and stops being worth
// the recall.
const maxAPCVerts = 5000

// subsetInt32 reports whether every element of a (sorted) occurs in b
// (sorted).
func subsetInt32(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		i += sort.Search(len(b)-i, func(k int) bool { return b[i+k] >= x })
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// intersectInt32 returns the elements common to the sorted sets a and b, in
// a fresh slice (merged negative sets may be shared between samples).
func intersectInt32(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

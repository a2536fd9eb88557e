// Package skyband implements dominance, skyline and k-skyband computation.
// The paper (and the baselines it compares with) preprocesses every dataset
// down to its k-skyband — the points dominated by fewer than k others —
// because no point outside the k-skyband can ever rank within the top k
// under any monotone linear utility.
package skyband

import (
	"sort"

	"rrq/internal/vec"
)

// Dominates reports whether p dominates q: p is at least as large in every
// dimension and strictly larger in at least one.
func Dominates(p, q vec.Vec) bool {
	strict := false
	for i, x := range p {
		if x < q[i] {
			return false
		}
		if x > q[i] {
			strict = true
		}
	}
	return strict
}

// Skyline returns the indices (in input order) of the points not dominated
// by any other point. Equivalent to KSkyband(pts, 1).
func Skyline(pts []vec.Vec) []int { return KSkyband(pts, 1) }

// KSkyband returns the indices (in input order) of the points dominated by
// fewer than k other points.
//
// The implementation processes points in descending attribute-sum order: a
// dominator always has an attribute sum at least as large as the dominated
// point, and a standard descent argument shows that a point is in the
// k-skyband iff it is dominated by fewer than k k-skyband points — so only
// the skyband found so far needs to be consulted.
func KSkyband(pts []vec.Vec, k int) []int {
	if k < 1 {
		return nil
	}
	n := len(pts)
	order := make([]int, n)
	sums := make([]float64, n)
	for i, p := range pts {
		order[i] = i
		sums[i] = p.Sum()
	}
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })

	band := make([]int, 0, 64)
	for _, idx := range order {
		p := pts[idx]
		count := 0
		for _, bIdx := range band {
			if Dominates(pts[bIdx], p) {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			band = append(band, idx)
		}
	}
	sort.Ints(band)
	return band
}

// Scratch holds the reusable working storage of KSkybandScratch, so
// repeated skyband computations on one worker allocate nothing once the
// buffers have grown to the working-set size.
type Scratch struct {
	order []int
	sums  []float64
	band  []int
}

// Stopper lets a caller abort a long scan: Stop counts one unit of work and
// reports whether the scan should stop.
type Stopper interface {
	Stop() bool
}

// StopStride is the number of dominance tests per Stopper poll — the work
// one unit stands for.
const StopStride = 32

// KSkybandScratch is KSkyband with caller-owned scratch storage: the
// returned index slice aliases s and is valid only until the next call with
// the same scratch. The result is identical to KSkyband — the internal
// processing order of equal-sum points may differ, but a dominator always
// has a strictly larger attribute sum than the point it dominates (it must
// exceed it in some coordinate and match or exceed in the rest), so
// equal-sum ties never affect dominator counts or band membership.
//
// stop, when non-nil, is polled once every StopStride dominance tests; the
// scan returns nil as soon as it reports true.
func KSkybandScratch(pts []vec.Vec, k int, s *Scratch, stop Stopper) []int {
	if k < 1 {
		return nil
	}
	n := len(pts)
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.sums = make([]float64, n)
	}
	order := s.order[:n]
	sums := s.sums[:n]
	for i, p := range pts {
		order[i] = i
		sums[i] = p.Sum()
	}
	sortIdxBySumDesc(order, sums)

	band := s.band[:0]
	tests := 0
	for _, idx := range order {
		p := pts[idx]
		count := 0
		for _, bIdx := range band {
			if tests++; tests%StopStride == 0 && stop != nil && stop.Stop() {
				s.band = band
				return nil
			}
			if Dominates(pts[bIdx], p) {
				count++
				if count >= k {
					break
				}
			}
		}
		if count < k {
			band = append(band, idx)
		}
	}
	s.band = band
	sort.Ints(band) // slices.Sort underneath: no allocation
	return band
}

// sortIdxBySumDesc sorts idx so that sums[idx[i]] is non-increasing, with a
// hand-rolled quicksort (median-of-three, insertion sort on small spans):
// unlike sort.Slice it allocates nothing. The order among equal-sum entries
// is unspecified, which KSkybandScratch's callers tolerate.
func sortIdxBySumDesc(idx []int, sums []float64) {
	for len(idx) > 12 {
		mid := len(idx) / 2
		hi := len(idx) - 1
		if sums[idx[mid]] > sums[idx[0]] {
			idx[mid], idx[0] = idx[0], idx[mid]
		}
		if sums[idx[hi]] > sums[idx[0]] {
			idx[hi], idx[0] = idx[0], idx[hi]
		}
		if sums[idx[mid]] > sums[idx[hi]] {
			idx[mid], idx[hi] = idx[hi], idx[mid]
		}
		pivot := sums[idx[hi]]
		p := 0
		for j := 0; j < hi; j++ {
			if sums[idx[j]] > pivot {
				idx[p], idx[j] = idx[j], idx[p]
				p++
			}
		}
		idx[p], idx[hi] = idx[hi], idx[p]
		// Recurse into the smaller side, loop on the larger.
		if p < len(idx)-p-1 {
			sortIdxBySumDesc(idx[:p], sums)
			idx = idx[p+1:]
		} else {
			sortIdxBySumDesc(idx[p+1:], sums)
			idx = idx[:p]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && sums[idx[j]] > sums[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// KSkybandCounts returns, for each point, its number of dominators inside
// the k-skyband, capped at k. The counts serve every band rank up to k at
// once: for any kk ≤ k, point i is in the kk-skyband iff counts[i] < kk,
// and selecting by that predicate in input order reproduces exactly
// Select(pts, KSkyband(pts, kk)).
//
// Correctness of the cap: counts consider only k-skyband dominators, but if
// a point has any dominator outside the k-skyband, that dominator itself
// has ≥ k skyband dominators, each of which transitively dominates the
// point — so its capped count is already k and the < kk test is unaffected.
func KSkybandCounts(pts []vec.Vec, k int) []int {
	n := len(pts)
	counts := make([]int, n)
	if k < 1 {
		for i := range counts {
			counts[i] = 1 // nothing qualifies for any band rank ≤ 0
		}
		return counts
	}
	order := make([]int, n)
	sums := make([]float64, n)
	for i, p := range pts {
		order[i] = i
		sums[i] = p.Sum()
	}
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })

	band := make([]int, 0, 64)
	for _, idx := range order {
		p := pts[idx]
		count := 0
		for _, bIdx := range band {
			if Dominates(pts[bIdx], p) {
				count++
				if count >= k {
					break
				}
			}
		}
		counts[idx] = count
		if count < k {
			band = append(band, idx)
		}
	}
	return counts
}

// Select returns the subset of pts at the given indices.
func Select(pts []vec.Vec, idx []int) []vec.Vec {
	out := make([]vec.Vec, len(idx))
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}

// DominatorCounts returns, for each point, the exact number of points
// dominating it, using the same descending attribute-sum order as KSkyband
// to halve the candidate scan: a dominator's attribute sum is at least the
// dominated point's, so only earlier points in the order can dominate.
// Exact full counts (not capped at any k) are what the snapshot index
// maintains incrementally: a deletion decrements counts, which a capped
// count could not survive.
func DominatorCounts(pts []vec.Vec) []int {
	n := len(pts)
	counts := make([]int, n)
	order := make([]int, n)
	sums := make([]float64, n)
	for i, p := range pts {
		order[i] = i
		sums[i] = p.Sum()
	}
	sort.Slice(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })
	for oi, idx := range order {
		p := pts[idx]
		for oj := 0; oj < oi; oj++ {
			if Dominates(pts[order[oj]], p) {
				counts[idx]++
			}
		}
		// Equal-sum points later in the order can still dominate only when
		// they are duplicates — and a duplicate never dominates (no strict
		// coordinate). Points with strictly smaller sums cannot dominate at
		// all, so the prefix scan is complete.
	}
	return counts
}

// DominatorCount returns, for each point, the number of points dominating
// it. Quadratic; intended for tests and small inputs.
func DominatorCount(pts []vec.Vec) []int {
	n := len(pts)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && Dominates(pts[j], pts[i]) {
				counts[i]++
			}
		}
	}
	return counts
}

// Package skyband implements dominance, skyline and k-skyband computation.
// The paper (and the baselines it compares with) preprocesses every dataset
// down to its k-skyband — the points dominated by fewer than k others —
// because no point outside the k-skyband can ever rank within the top k
// under any monotone linear utility.
package skyband

import (
	"slices"

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
func KSkyband(pts []vec.Vec, k int) []int {
	if k < 1 {
		return nil
	}
	band := make([]int, 0, 64)
	for i, c := range KSkybandCounts(pts, k) {
		if c < k {
			band = append(band, i)
		}
	}
	return band
}

// KSkybandCounts returns, for each point, its number of dominators capped
// at k: the exact count when it is below k, and k otherwise. The counts
// serve every band rank up to k at once: for any kk ≤ k, point i is in the
// kk-skyband iff counts[i] < kk, and selecting by that predicate in input
// order reproduces exactly Select(pts, KSkyband(pts, kk)). With k < 1 every
// count is 1: nothing qualifies for any band rank ≤ 0.
//
// The band scan (see bandScan) costs about n times the band size, so it is
// the cheaper count when the band is small. A scan test costs about three
// of countWork's units (measured), so the scan gives up once it has spent
// what a Counter would, and the Counter then makes the count.
func KSkybandCounts(pts []vec.Vec, k int) []int {
	counts := make([]int, len(pts))
	if k < 1 {
		for i := range counts {
			counts[i] = 1
		}
		return counts
	}
	if bandScan(pts, k, counts, countWork(len(pts), dimOf(pts))/3) {
		return counts
	}
	var c Counter
	c.Reset(pts, nil)
	c.Dominators(nil, counts)
	for i, x := range counts {
		counts[i] = min(x, k)
	}
	return counts
}

// bandScan sets counts[i] to point i's dominators inside the k-skyband,
// capped at k, visiting points in descending attribute sum. Float addition
// is monotone, so a dominator's sum is never smaller than the dominated
// point's — but the two can round equal (0.5 + 2e-17 and 0.5 + 1e-18 are
// both 0.5), so equal sums are ordered lexicographically descending, and a
// dominator, which differs from the point and is at least as large in every
// coordinate, always comes first. Each point is then tested against the
// band found so far only: if it has a dominator outside the k-skyband, that
// dominator itself has ≥ k band dominators, each of which transitively
// dominates the point — so the capped count is the same. The scan reports
// false, with counts partial, once it has made more than maxTests
// dominance tests.
func bandScan(pts []vec.Vec, k int, counts []int, maxTests int) bool {
	n := len(pts)
	order := make([]int32, n)
	sums := make([]float64, n)
	for i, p := range pts {
		order[i] = int32(i)
		sums[i] = p.Sum()
	}
	slices.SortFunc(order, func(a, b int32) int {
		switch {
		case sums[a] > sums[b]:
			return -1
		case sums[a] < sums[b]:
			return 1
		}
		return lexCmp(pts[b], pts[a])
	})
	band := make([]int32, 0, 64)
	tests := 0
	for _, idx := range order {
		p := pts[idx]
		count := 0
		for j, b := range band {
			if Dominates(pts[b], p) {
				if count++; count >= k {
					tests += j + 1
					break
				}
			}
		}
		if count < k {
			tests += len(band)
			band = append(band, idx)
		}
		if tests > maxTests {
			return false
		}
		counts[idx] = count
	}
	return true
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
// dominating it. Exact full counts (not capped at any k) are what the
// snapshot index maintains incrementally: a deletion decrements counts,
// which a capped count could not survive.
func DominatorCounts(pts []vec.Vec) []int {
	counts := make([]int, len(pts))
	var c Counter
	c.Reset(pts, nil)
	c.Dominators(nil, counts)
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

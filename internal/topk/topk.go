// Package topk provides utility-ranking helpers: the k-th largest utility
// of a dataset under a utility vector (the kmax operator of the paper),
// top-k index selection and query ranking. KthMax uses quickselect so that
// per-sample evaluation in A-PC stays linear.
package topk

import (
	"sort"

	"rrq/internal/vec"
)

// Utilities computes f_u(p) = u·p for every point.
func Utilities(pts []vec.Vec, u vec.Vec) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = u.Dot(p)
	}
	return out
}

// KthMax returns the k-th largest value of xs (1-based: k=1 is the max).
// It clamps k to [1, len(xs)] and panics on an empty slice. xs is not
// modified.
func KthMax(xs []float64, k int) float64 {
	v, _ := KthMaxScratch(xs, k, nil)
	return v
}

// KthMaxScratch is KthMax with caller-owned scratch storage: xs is copied
// into buf (grown as needed) instead of a fresh allocation, and the grown
// buffer is returned for reuse. The selected value is identical to
// KthMax's.
func KthMaxScratch(xs []float64, k int, buf []float64) (float64, []float64) {
	n := len(xs)
	if n == 0 {
		panic("topk: KthMax of empty slice")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	buf = append(buf[:0], xs...)
	return quickselectDesc(buf, k-1), buf
}

// KthMinScratch returns the k-th smallest value of xs (1-based, clamped
// like KthMax) using buf as scratch: the negated values are selected with
// the same descending quickselect, so the result is bitwise-identical to
// -KthMax(-xs, k).
func KthMinScratch(xs []float64, k int, buf []float64) (float64, []float64) {
	n := len(xs)
	if n == 0 {
		panic("topk: KthMin of empty slice")
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	buf = buf[:0]
	for _, x := range xs {
		buf = append(buf, -x)
	}
	return -quickselectDesc(buf, k-1), buf
}

// quickselectDesc returns the element that would be at index i if buf were
// sorted in descending order. It partially reorders buf.
func quickselectDesc(buf []float64, i int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		// Median-of-three pivot for resilience on sorted inputs.
		mid := lo + (hi-lo)/2
		if buf[mid] > buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] > buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[mid] > buf[hi] {
			buf[mid], buf[hi] = buf[hi], buf[mid]
		}
		pivot := buf[hi]
		p := lo
		for j := lo; j < hi; j++ {
			if buf[j] > pivot {
				buf[p], buf[j] = buf[j], buf[p]
				p++
			}
		}
		buf[p], buf[hi] = buf[hi], buf[p]
		switch {
		case i == p:
			return buf[p]
		case i < p:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
	return buf[lo]
}

// TopKIndices returns the indices of the k points with the largest
// utilities w.r.t. u, in descending utility order. Ties break by index.
func TopKIndices(pts []vec.Vec, u vec.Vec, k int) []int {
	n := len(pts)
	if k > n {
		k = n
	}
	idx := make([]int, n)
	util := Utilities(pts, u)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ua, ub := util[idx[a]], util[idx[b]]
		if ua != ub {
			return ua > ub
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// Rank returns the 1-based rank of value x among the utilities of pts
// w.r.t. u: one plus the number of points with strictly larger utility.
func Rank(pts []vec.Vec, u vec.Vec, x float64) int {
	r := 1
	for _, p := range pts {
		if u.Dot(p) > x {
			r++
		}
	}
	return r
}

package main

import (
	"math"
	"sort"
)

// nearestRank returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method — the smallest sample with at least p% of the samples
// at or below it — and how many samples lie beyond it. xs is sorted in
// place. An empty xs yields 0, 0.
func nearestRank(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1], len(xs) - rank
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so -runs spreads read like the ones computed from
// separate runs. One sample is its own quartiles; xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, m := len(d), len(d)+1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise a metric's bound must exceed.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

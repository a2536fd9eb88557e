package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct {
		name       string
		xs         []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{"empty", nil, 99, 0, 0},
		{"single", []float64{7}, 99, 7, 0},
		{"p50 of 1..100", hundred, 50, 50, 50},
		{"p99 of 1..100", hundred, 99, 99, 1},
		{"p100 of 1..100", hundred, 100, 100, 0},
		{"p50 of four", []float64{4, 1, 3, 2}, 50, 2, 2},
		{"p99 of 1000 leaves 10 beyond", seq(1000), 99, 990, 10},
		{"p99 of 999 rounds the rank up", seq(999), 99, 990, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, beyond := nearestRank(append([]float64(nil), tc.xs...), tc.p)
			if got != tc.want || beyond != tc.wantBeyond {
				t.Fatalf("nearestRank(p%v) = %v, %d beyond; want %v, %d", tc.p, got, beyond, tc.want, tc.wantBeyond)
			}
		})
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}}, // extrapolates, as Python does
		{[]float64{10, 20, 30, 40}, [3]float64{12.5, 25, 37.5}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Fatalf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		}
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

package rrq

// Boundary parameter coverage for the public API: the ε and k extremes the
// degenerate-input sweep (internal/diffcheck) exercises internally must
// behave identically through the public surface — ε = 0 is exactly the
// continuous reverse top-k, ε just below 1 qualifies (almost) everything,
// k > n clamps to "everything qualifies", and out-of-domain parameters are
// rejected as *QueryError, never silently clamped.
import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestBoundaryEpsilonZeroEqualsReverseTopK(t *testing.T) {
	ds := table3Dataset(t)
	for k := 1; k <= 3; k++ {
		reg, err := regionOf(SolveContext(context.Background(), ds, Query{Q: Point{0.4, 0.7}, K: k, Epsilon: 0}, WithAlgorithm(EPTAlgo)))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rtk, err := ReverseTopK(ds, Point{0.4, 0.7}, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := 0; i <= 100; i++ {
			x := 0.005 + 0.99*float64(i)/100
			u := Vector{x, 1 - x}
			if reg.Contains(u) != rtk.Contains(u) {
				t.Fatalf("k=%d: ε=0 Solve and ReverseTopK disagree at %v", k, u)
			}
		}
	}
}

func TestBoundaryEpsilonNearOne(t *testing.T) {
	ds := table3Dataset(t)
	// ε → 1: (1−ε)·f_u(p) ≈ 0 < f_u(q) for every u, so no point beats q and
	// the whole simplex qualifies even at k = 1.
	reg, err := regionOf(SolveContext(context.Background(), ds, Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: 1 - 1e-12}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		x := float64(i) / 100
		if !reg.Contains(Vector{x, 1 - x}) {
			t.Fatalf("u=(%v,%v) must qualify at ε→1", x, 1-x)
		}
	}
	if m := reg.Measure(2000); m < 0.99 {
		t.Fatalf("measure at ε→1 = %v, want ≈ 1", m)
	}
}

func TestBoundaryKLargerThanN(t *testing.T) {
	ds := table3Dataset(t)
	// k > n: fewer than k points exist, so fewer than k can beat q and every
	// preference qualifies regardless of ε.
	reg, err := regionOf(SolveContext(context.Background(), ds, Query{Q: Point{0.05, 0.05}, K: ds.Len() + 1, Epsilon: 0}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 100; i++ {
		x := float64(i) / 100
		if !reg.Contains(Vector{x, 1 - x}) {
			t.Fatalf("u=(%v,%v) must qualify when k > n", x, 1-x)
		}
	}
}

func TestBoundaryParameterValidation(t *testing.T) {
	ds := table3Dataset(t)
	cases := []struct {
		name string
		q    Query
	}{
		{"eps exactly one", Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: 1}},
		{"eps negative", Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: -1e-9}},
		{"eps NaN", Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: math.NaN()}},
		{"k zero", Query{Q: Point{0.4, 0.7}, K: 0, Epsilon: 0.1}},
		{"k negative", Query{Q: Point{0.4, 0.7}, K: -3, Epsilon: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := SolveContext(context.Background(), ds, tc.q)
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("Solve accepted %+v (err=%v), want *QueryError", tc.q, err)
			}
		})
	}
}

func TestMeasureWithSeedReproducible(t *testing.T) {
	ds, err := NewDataset([][]float64{
		{0.2, 0.92, 0.5}, {0.7, 0.54, 0.3}, {0.6, 0.3, 0.8}, {0.4, 0.4, 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := regionOf(SolveContext(context.Background(), ds, Query{Q: Point{0.5, 0.6, 0.4}, K: 2, Epsilon: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	a := reg.MeasureWithSeed(7, 3000)
	b := reg.MeasureWithSeed(7, 3000)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
	if got, want := reg.MeasureWithSeed(1, 3000), reg.Measure(3000); got != want {
		t.Fatalf("Measure must equal MeasureWithSeed(1, ·): %v vs %v", want, got)
	}
}

package core

// Regression tests for degenerate-plane semantics: a dataset containing
// p = q/(1−ε) produces a plane h_{q,p} with an exactly-zero normal. The
// system-wide contract (see geom.QueryPlane) is that such a plane
// contributes 0 to the <k negative-half-space tally in every layer. One
// function, classifyPlane, decides it for plane construction, CountBetter
// and the A-PC sampler and partition builder; TestClassifyPlaneBoundary
// pins that rule at its geom.Tol threshold, and the rest check that every
// solver honours it.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

// degenerateInstance builds a random instance whose dataset contains
// p = q/(1−ε) computed so that q[j] − (1−ε)·p[j] is exactly zero... not
// quite: float division does not invert multiplication exactly, so the
// instance is built the other way around — p is drawn first and q = (1−ε)p
// is computed with the solvers' own expression.
func degenerateInstance(rng *rand.Rand, n, d int, eps float64) ([]vec.Vec, Query) {
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.05 + 0.9*rng.Float64()
		}
		pts[i] = p
	}
	scale := 1 - eps
	p := pts[rng.Intn(n)]
	q := vec.New(d)
	for j := range q {
		q[j] = scale * p[j]
	}
	return pts, Query{Q: q, K: 1 + rng.Intn(3), Eps: eps}
}

// TestClassifyPlaneBoundary pins the plane rule at its threshold: each
// component of the normal q − (1−ε)p counts as zero within the absolute
// geom.Tol (= 1e-9), strictly, whatever the operands' magnitude. With p = 0
// and ε = 0 the normal is q itself, exactly. buildPlanes and CountBetter
// must agree with the rule on every row.
func TestClassifyPlaneBoundary(t *testing.T) {
	const in, out = 1e-10, 5e-9 // inside and outside geom.Tol
	cases := []struct {
		name   string
		normal vec.Vec
		want   planeKind
	}{
		{"zero", vec.Vec{0, 0, 0}, planeDrop},
		{"pos-inside", vec.Vec{in, 0, 0}, planeDrop},
		{"neg-inside", vec.Vec{-in, 0, 0}, planeDrop},
		{"neg-at-tol", vec.Vec{-1e-9, 0, 0}, planeDrop},
		{"pos-outside", vec.Vec{out, 0, 0}, planeDrop},
		{"neg-outside", vec.Vec{-out, 0, 0}, planeBase},
		{"neg-outside-pos-inside", vec.Vec{-out, in, 0}, planeBase},
		{"pos-outside-neg-inside", vec.Vec{out, -in, 0}, planeDrop},
		{"mixed-outside", vec.Vec{out, -out, 0}, planeCross},
		{"mixed-inside", vec.Vec{in, -in, 0}, planeDrop},
		{"mixed-large", vec.Vec{0.3, -0.2, 0.1}, planeCross},
		{"neg-large-neg-inside", vec.Vec{-0.3, -0.2, -in}, planeBase},
		{"pos-large-neg-inside", vec.Vec{0.3, 0.2, -in}, planeDrop},
	}
	zero := vec.New(3)
	for _, tc := range cases {
		if got := classifyPlane(tc.normal, zero, 1); got != tc.want {
			t.Errorf("%s: classifyPlane(%v) = %d, want %d", tc.name, tc.normal, got, tc.want)
		}
		q := Query{Q: tc.normal, K: 1}
		ps := buildPlanes([]vec.Vec{zero}, q, &Arena{})
		if ps.Base != b2i(tc.want == planeBase) || len(ps.Crossing) != b2i(tc.want == planeCross) {
			t.Errorf("%s: buildPlanes base %d, crossing %d; want kind %d", tc.name, ps.Base, len(ps.Crossing), tc.want)
		}
		if tc.want != planeCross {
			if c, _ := CountBetter([]vec.Vec{zero}, q, vec.Vec{1. / 3, 1. / 3, 1. / 3}); c != b2i(tc.want == planeBase) {
				t.Errorf("%s: CountBetter = %d, want kind %d", tc.name, c, tc.want)
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestCountBetterSkipsDegeneratePlane: the zero-normal plane must neither
// count nor pin the reported margin to rounding noise.
func TestCountBetterSkipsDegeneratePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		d := 2 + trial%4
		pts, q := degenerateInstance(rng, 4+rng.Intn(8), d, []float64{0, 0.1, 0.3}[trial%3])
		ps := buildPlanes(pts, q, &Arena{})
		for i := 0; i < 20; i++ {
			u := vec.RandSimplex(rng, d)
			count, margin := CountBetter(pts, q, u)
			// The margin must come from crossing planes only: with at most
			// n−1 of them in general position it is almost surely far above
			// rounding noise, whereas the raw-diff formulation pinned it to
			// ~1e-16 whenever the degenerate plane was present.
			if margin < 1e-12 {
				t.Fatalf("trial %d: margin %.3g poisoned by degenerate plane", trial, margin)
			}
			// Cross-check the count against the classified arrangement.
			want := ps.Base
			for _, h := range ps.Crossing {
				if h.Eval(u) < 0 {
					want++
				}
			}
			if math.Abs(h0margin(ps, u)) >= 1e-9 && count != want {
				t.Fatalf("trial %d: CountBetter=%d, classified arrangement=%d", trial, count, want)
			}
		}
	}
}

func h0margin(ps PlaneSet, u vec.Vec) float64 {
	m := math.Inf(1)
	for _, h := range ps.Crossing {
		if a := math.Abs(h.Eval(u)); a < m {
			m = a
		}
	}
	return m
}

// TestSolversAgreeOnDegeneratePlaneDatasets: every solver must agree with
// the counting oracle when the dataset contains p = q/(1−ε).
func TestSolversAgreeOnDegeneratePlaneDatasets(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		d := 2 + trial%3
		eps := []float64{0, 0.1, 0.25}[trial%3]
		pts, q := degenerateInstance(rng, 5+rng.Intn(6), d, eps)

		reg, _, err := solveOn(ctx, EPTSolver{}, pts, q)
		if err != nil {
			t.Fatalf("trial %d: E-PT: %v", trial, err)
		}
		checkRegionAgainstOracle(t, reg, pts, q, rng, 120, true)

		var brute *Region
		if d == 2 {
			brute, _, err = solveOn(ctx, BruteForceSolver{}, pts, q)
			if err == nil {
				sweep, _, serr := solveOn(ctx, SweepingSolver{}, pts, q)
				if serr != nil {
					t.Fatalf("trial %d: sweeping: %v", trial, serr)
				}
				checkRegionAgainstOracle(t, sweep, pts, q, rng, 120, true)
			}
		} else {
			brute, _, err = solveOn(ctx, BruteForceSolver{MaxPlanes: 64}, pts, q)
		}
		if err != nil {
			t.Fatalf("trial %d: brute force: %v", trial, err)
		}
		checkRegionAgainstOracle(t, brute, pts, q, rng, 120, true)

		apc, _, err := solveOn(ctx, APCSolver{Opt: APCOptions{Samples: 80, Seed: int64(trial)}}, pts, q)
		if err != nil {
			t.Fatalf("trial %d: A-PC: %v", trial, err)
		}
		checkRegionAgainstOracle(t, apc, pts, q, rng, 120, false)
	}
}

// TestAPCClassifyIgnoresDegeneratePlane: on a dataset where q = (1−ε)p for
// every point, no plane may enter any D⁻ set, so the whole simplex
// qualifies for any k ≥ 1 and A-PC must return a non-empty region.
func TestAPCClassifyIgnoresDegeneratePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		d := 2 + trial%4
		eps := []float64{0, 0.2}[trial%2]
		p := vec.New(d)
		for j := range p {
			p[j] = 0.1 + 0.8*rng.Float64()
		}
		scale := 1 - eps
		q := vec.New(d)
		for j := range q {
			q[j] = scale * p[j]
		}
		// Several exact copies: every plane in the arrangement is degenerate.
		pts := []vec.Vec{p, p.Clone(), p.Clone()}
		query := Query{Q: q, K: 1, Eps: eps}

		apc, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 40, Seed: int64(trial)}}, pts, query)
		if err != nil {
			t.Fatalf("trial %d: A-PC: %v", trial, err)
		}
		if apc.Empty() {
			t.Fatalf("trial %d: A-PC returned empty region; degenerate planes disqualified its samples", trial)
		}
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, d)
			if count, _ := CountBetter(pts, query, u); count != 0 {
				t.Fatalf("trial %d: degenerate plane counted at u=%v", trial, u)
			}
		}
	}
}

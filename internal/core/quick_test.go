package core

// Property-based tests (testing/quick) on the problem-level invariants.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rrq/internal/vec"
)

// MergeIntervals output is sorted, disjoint, and preserves total covered
// length for already-disjoint inputs.
func TestQuickMergeIntervals(t *testing.T) {
	f := func(raw [6]float64) bool {
		var ivs [][2]float64
		for i := 0; i+1 < len(raw); i += 2 {
			a := math.Abs(math.Mod(raw[i], 1))
			b := math.Abs(math.Mod(raw[i+1], 1))
			if math.IsNaN(a) || math.IsNaN(b) {
				return true
			}
			lo, hi := math.Min(a, b), math.Max(a, b)
			ivs = append(ivs, [2]float64{lo, hi})
		}
		out := MergeIntervals(ivs)
		for i := range out {
			if out[i][0] > out[i][1] {
				return false
			}
			if i > 0 && out[i][0] <= out[i-1][1] {
				return false // must be strictly separated
			}
		}
		// Membership preserved at probe points.
		for _, p := range []float64{0.1, 0.35, 0.5, 0.75, 0.9} {
			in := false
			for _, iv := range ivs {
				if p >= iv[0] && p <= iv[1] {
					in = true
					break
				}
			}
			inMerged := false
			for _, iv := range out {
				if p >= iv[0] && p <= iv[1] {
					inMerged = true
					break
				}
			}
			if in != inMerged {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The regret ratio is monotone: increasing k can only lower (or keep) it,
// and it always lies in [0, 1].
func TestQuickRegretRatioMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		n := 3 + r.Intn(20)
		pts := make([]vec.Vec, n)
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				p[j] = 0.01 + 0.99*r.Float64()
			}
			pts[i] = p
		}
		qp := vec.New(d)
		for j := range qp {
			qp[j] = 0.01 + 0.99*r.Float64()
		}
		u := vec.RandSimplex(rng, d)
		prev := math.Inf(1)
		for k := 1; k <= n; k++ {
			rr := RegretRatio(pts, Query{Q: qp, K: k, Eps: 0.1}, u)
			if rr < 0 || rr > 1 {
				return false
			}
			if rr > prev+1e-12 {
				return false
			}
			prev = rr
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Qualification is monotone in both k and ε: relaxing either never
// disqualifies a utility vector.
func TestQuickQualificationMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := 2 + r.Intn(3)
		pts := make([]vec.Vec, 12)
		for i := range pts {
			p := vec.New(d)
			for j := range p {
				p[j] = 0.01 + 0.99*r.Float64()
			}
			pts[i] = p
		}
		qp := pts[0].Clone()
		u := vec.RandSimplex(rng, d)
		for k := 1; k < 4; k++ {
			for _, eps := range []float64{0, 0.05, 0.1} {
				if QualifiedAt(pts, Query{Q: qp, K: k, Eps: eps}, u) {
					// Must stay qualified at (k+1, eps) and (k, eps+0.05).
					if !QualifiedAt(pts, Query{Q: qp, K: k + 1, Eps: eps}, u) {
						return false
					}
					if !QualifiedAt(pts, Query{Q: qp, K: k, Eps: eps + 0.05}, u) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(25))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// The region returned by Sweeping is monotone in ε: a larger tolerance
// yields a superset (measured via interval coverage).
func TestQuickSweepingMonotoneEps(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 60; trial++ {
		pts, q := randomInstance(rng, 20, 2)
		q.Eps = 0.05
		small, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		q.Eps = 0.15
		big, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			tt := rng.Float64()
			u := vec.Of(tt, 1-tt)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if small.Contains(u) && !big.Contains(u) {
				t.Fatalf("trial %d: ε-monotonicity violated at t=%v", trial, tt)
			}
		}
	}
}

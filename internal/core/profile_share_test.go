package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

func TestMinQualifyingEps(t *testing.T) {
	pts := table3()
	u := vec.Of(0.5, 0.5)
	// From Example 3.3: 2-regratio of q at u is 0.01/0.56, so ε* equals it.
	got := MinQualifyingEps(pts, 2, vec.Of(0.4, 0.7), u)
	if math.Abs(got-0.01/0.56) > 1e-12 {
		t.Fatalf("ε* = %v, want %v", got, 0.01/0.56)
	}
	// A dominating query has ε* = 0.
	if MinQualifyingEps(pts, 1, vec.Of(0.99, 0.99), u) != 0 {
		t.Fatal("dominating query should need ε* = 0")
	}
	if MinQualifyingEps(nil, 1, vec.Of(0.5, 0.5), u) != 0 {
		t.Fatal("empty market should need ε* = 0")
	}
}

// The profile's Share(ε) must match an independent Region.Measure at
// several thresholds.
func TestShareProfileMatchesRegionMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts, q := randomInstance(rng, 60, 3)
	sp, err := NewShareProfile(pts, q, 20000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0, 0.05, 0.1, 0.2} {
		q2 := q
		q2.Eps = eps
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q2)
		if err != nil {
			t.Fatal(err)
		}
		want := reg.Measure(rand.New(rand.NewSource(3)), 20000)
		got := sp.Share(eps)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("ε=%v: profile share %v vs region measure %v", eps, got, want)
		}
	}
}

func TestShareProfileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts, q := randomInstance(rng, 40, 4)
	sp, err := NewShareProfile(pts, q, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for eps := 0.0; eps <= 0.5; eps += 0.02 {
		s := sp.Share(eps)
		if s < prev {
			t.Fatalf("share decreased at ε=%v: %v < %v", eps, s, prev)
		}
		if s < 0 || s > 1 {
			t.Fatalf("share %v out of range", s)
		}
		prev = s
	}
	if sp.Samples() != 3000 {
		t.Fatalf("samples = %d", sp.Samples())
	}
}

func TestEpsForShare(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts, q := randomInstance(rng, 40, 3)
	sp, err := NewShareProfile(pts, q, 5000, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []float64{0.25, 0.5, 0.9} {
		eps := sp.EpsForShare(target)
		got := sp.Share(eps)
		if got < target-1e-9 {
			t.Fatalf("EpsForShare(%v) = %v reaches only %v", target, eps, got)
		}
	}
	if sp.EpsForShare(0) != 0 {
		t.Fatal("target 0 should need ε = 0")
	}
	if sp.EpsForShare(1) != sp.eps[len(sp.eps)-1] {
		t.Fatal("target 1 should return the max sampled ε*")
	}
}

func TestShareProfileValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	if _, err := NewShareProfile(nil, Query{Q: vec.Of(0.5, 0.5), K: 0, Eps: 0}, 10, rng); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := NewShareProfile([]vec.Vec{vec.Of(1, 2, 3)}, Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 0}, 10, rng); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

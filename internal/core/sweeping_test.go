package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/topk"
	"rrq/internal/vec"
)

// With no competitors crossing the segment, the whole space qualifies.
func TestSweepingWholeSegment(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.1, 0.1), vec.Of(0.2, 0.1)}
	q := Query{Q: vec.Of(0.9, 0.9), K: 1, Eps: 0.0}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	ivs := reg.Intervals()
	if len(ivs) != 1 || math.Abs(ivs[0][0]) > 1e-9 || math.Abs(ivs[0][1]-1) > 1e-9 {
		t.Fatalf("intervals = %v, want [[0,1]]", ivs)
	}
	if m := reg.Measure(nil, 0); math.Abs(m-1) > 1e-9 {
		t.Fatalf("measure = %v, want 1", m)
	}
}

// Base planes (competitors scaled-dominating q) consume budget globally.
func TestSweepingBasePlanes(t *testing.T) {
	// p dominates q/(1−ε) in both attributes → its negative half-space
	// covers the whole segment.
	pts := []vec.Vec{vec.Of(0.9, 0.9), vec.Of(0.85, 0.88)}
	q := Query{Q: vec.Of(0.3, 0.3), K: 2, Eps: 0.1}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Empty() {
		t.Fatalf("two base competitors at k=2 must empty the region, got %v", reg.Intervals())
	}
	// k=3 survives them.
	q.K = 3
	reg, _, err = solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Empty() {
		t.Fatal("k=3 should leave the whole segment qualified")
	}
}

// Only inclusive planes: the region is an interval anchored at t = 0.
func TestSweepingOnlyInclusive(t *testing.T) {
	// Competitor much stronger in attribute 1 only: its plane's negative
	// half-space contains (1,0).
	pts := []vec.Vec{vec.Of(0.95, 0.1)}
	q := Query{Q: vec.Of(0.4, 0.6), K: 1, Eps: 0.0}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	ivs := reg.Intervals()
	if len(ivs) != 1 || math.Abs(ivs[0][0]) > 1e-9 {
		t.Fatalf("intervals = %v, want one interval starting at 0", ivs)
	}
	// The crossing parameter: u·(q−p) = 0.
	w := q.Q.Sub(pts[0])
	want := w[1] / (w[1] - w[0])
	if math.Abs(ivs[0][1]-want) > 1e-9 {
		t.Fatalf("upper bound = %v, want %v", ivs[0][1], want)
	}
}

// Mirror case: only exclusive planes anchor the region at t = 1.
func TestSweepingOnlyExclusive(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.1, 0.95)}
	q := Query{Q: vec.Of(0.6, 0.4), K: 1, Eps: 0.0}
	reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	ivs := reg.Intervals()
	if len(ivs) != 1 || math.Abs(ivs[0][1]-1) > 1e-9 {
		t.Fatalf("intervals = %v, want one interval ending at 1", ivs)
	}
}

// Many coincident crossings must not break the counter bookkeeping.
func TestSweepingCoincidentCrossings(t *testing.T) {
	p := vec.Of(0.8, 0.2)
	pts := []vec.Vec{p, p.Clone(), p.Clone(), p.Clone()}
	for _, k := range []int{1, 2, 3, 4, 5} {
		q := Query{Q: vec.Of(0.5, 0.5), K: k, Eps: 0.0}
		want, _, err := solveOn(context.Background(), BruteForceSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if want.Contains(u) != got.Contains(u) {
				t.Fatalf("k=%d: disagreement at %v", k, u)
			}
		}
	}
}

// The window can be empty even when both rankings exist.
func TestSweepingEmptyWindow(t *testing.T) {
	// One strong inclusive and one strong exclusive competitor whose
	// windows do not overlap at k=1.
	pts := []vec.Vec{vec.Of(0.95, 0.4), vec.Of(0.4, 0.95)}
	q := Query{Q: vec.Of(0.35, 0.35), K: 1, Eps: 0.0}
	want, _, err := solveOn(context.Background(), BruteForceSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Empty() != got.Empty() {
		t.Fatalf("emptiness mismatch: brute=%v sweep=%v", want.Intervals(), got.Intervals())
	}
}

func TestKthSmallest(t *testing.T) {
	xs := []float64{0.5, 0.1, 0.9, 0.3}
	if got, _ := topk.KthMinScratch(xs, 1, nil); got != 0.1 {
		t.Fatalf("1st smallest = %v", got)
	}
	if got, _ := topk.KthMinScratch(xs, 4, nil); got != 0.9 {
		t.Fatalf("4th smallest = %v", got)
	}
}

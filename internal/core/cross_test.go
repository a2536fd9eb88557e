package core

// Cross-validation property tests: all solvers must agree with each other
// and with the direct membership oracle on random inputs. Utility vectors
// that land numerically on a partition boundary are skipped via the margin
// reported by CountBetter.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/dataset"
	"rrq/internal/vec"
)

const boundaryMargin = 1e-7

// checkRegionAgainstOracle samples utility vectors and verifies that the
// region's membership matches the counting oracle.
func checkRegionAgainstOracle(t *testing.T, reg *Region, pts []vec.Vec, q Query, rng *rand.Rand, samples int, exact bool) {
	t.Helper()
	for i := 0; i < samples; i++ {
		u := vec.RandSimplex(rng, q.Q.Dim())
		count, margin := CountBetter(pts, q, u)
		if margin < boundaryMargin {
			continue
		}
		want := count < q.K
		got := reg.Contains(u)
		if got && !want {
			t.Fatalf("false positive at u=%v: count=%d k=%d", u, count, q.K)
		}
		if exact && want && !got {
			t.Fatalf("false negative at u=%v: count=%d k=%d", u, count, q.K)
		}
	}
}

func randomInstance(rng *rand.Rand, n, d int) ([]vec.Vec, Query) {
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.01 + 0.99*rng.Float64()
		}
		pts[i] = p
	}
	q := Query{
		Q:   pts[rng.Intn(n)].Clone(),
		K:   1 + rng.Intn(5),
		Eps: rng.Float64() * 0.25,
	}
	for j := range q.Q {
		q.Q[j] = math.Min(1, math.Max(0.01, q.Q[j]+(rng.Float64()-0.5)*0.2))
	}
	return pts, q
}

func TestSweepingMatchesBruteForce2D(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 150; trial++ {
		pts, q := randomInstance(rng, 3+rng.Intn(40), 2)
		want, _, err := solveOn(context.Background(), BruteForceSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		wi, gi := want.Intervals(), got.Intervals()
		if len(wi) != len(gi) {
			t.Fatalf("trial %d (k=%d ε=%.3f): %d intervals vs brute force %d\n got=%v\nwant=%v",
				trial, q.K, q.Eps, len(gi), len(wi), gi, wi)
		}
		for i := range wi {
			if math.Abs(wi[i][0]-gi[i][0]) > 1e-7 || math.Abs(wi[i][1]-gi[i][1]) > 1e-7 {
				t.Fatalf("trial %d interval %d: got %v want %v", trial, i, gi[i], wi[i])
			}
		}
	}
}

func TestEPTMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, d := range []int{2, 3, 4, 5} {
		for trial := 0; trial < 25; trial++ {
			pts, q := randomInstance(rng, 10+rng.Intn(50), d)
			reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			checkRegionAgainstOracle(t, reg, pts, q, rng, 200, true)
		}
	}
}

func TestEPTMatchesBruteForceND(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, d := range []int{3, 4} {
		for trial := 0; trial < 15; trial++ {
			pts, q := randomInstance(rng, 6+rng.Intn(8), d)
			want, _, err := solveOn(context.Background(), BruteForceSolver{MaxPlanes: 100}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				u := vec.RandSimplex(rng, d)
				_, margin := CountBetter(pts, q, u)
				if margin < boundaryMargin {
					continue
				}
				if want.Contains(u) != got.Contains(u) {
					t.Fatalf("d=%d trial %d: disagreement at %v (brute=%v ept=%v)",
						d, trial, u, want.Contains(u), got.Contains(u))
				}
			}
		}
	}
}

func TestSweepingMatchesEPT2D(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 60; trial++ {
		pts, q := randomInstance(rng, 5+rng.Intn(60), 2)
		sw, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		ep, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if sw.Contains(u) != ep.Contains(u) {
				t.Fatalf("trial %d: disagreement at %v (sweep=%v ept=%v)",
					trial, u, sw.Contains(u), ep.Contains(u))
			}
		}
	}
}

// A-PC is approximate: it must never return an unqualified utility vector
// (Lemma 5.7 soundness), and with generous sampling it should recover most
// of the qualified region.
func TestAPCSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for _, d := range []int{2, 3, 4} {
		for trial := 0; trial < 20; trial++ {
			pts, q := randomInstance(rng, 10+rng.Intn(40), d)
			reg, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 60, Seed: int64(trial)}}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			checkRegionAgainstOracle(t, reg, pts, q, rng, 200, false)
		}
	}
}

func TestAPCRecallImprovesWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	pts := dataset.Generate(dataset.Independent, 200, 3, 77)
	q := Query{Q: dataset.RandQuery(rng, pts), K: 5, Eps: 0.1}
	exact, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	recall := func(samples int) float64 {
		reg, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: samples, Seed: 9}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		hit, total := 0, 0
		probe := rand.New(rand.NewSource(1))
		for i := 0; i < 3000; i++ {
			u := vec.RandSimplex(probe, 3)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin || !exact.Contains(u) {
				continue
			}
			total++
			if reg.Contains(u) {
				hit++
			}
		}
		if total == 0 {
			t.Skip("qualified region too small to assess recall")
		}
		return float64(hit) / float64(total)
	}
	low := recall(5)
	high := recall(400)
	if high < low-0.05 {
		t.Fatalf("recall did not improve with samples: N=5 → %.3f, N=400 → %.3f", low, high)
	}
	if high < 0.9 {
		t.Fatalf("recall with 400 samples = %.3f, want ≥ 0.9", high)
	}
}

// ε = 0 must coincide with the continuous reverse top-k: u qualifies iff
// fewer than k points strictly beat q.
func TestEpsilonZeroIsReverseTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	for trial := 0; trial < 30; trial++ {
		pts, q := randomInstance(rng, 20, 3)
		q.Eps = 0
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			u := vec.RandSimplex(rng, 3)
			fq := u.Dot(q.Q)
			beat, margin := 0, math.Inf(1)
			for _, p := range pts {
				diff := u.Dot(p) - fq
				if diff > 0 {
					beat++
				}
				if a := math.Abs(diff); a < margin {
					margin = a
				}
			}
			if margin < boundaryMargin {
				continue
			}
			if got, want := reg.Contains(u), beat < q.K; got != want {
				t.Fatalf("trial %d: ε=0 mismatch at %v: beat=%d k=%d got=%v", trial, u, beat, q.K, got)
			}
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(808))

	t.Run("query dominates everything", func(t *testing.T) {
		pts := []vec.Vec{vec.Of(0.1, 0.2, 0.1), vec.Of(0.2, 0.1, 0.3)}
		q := Query{Q: vec.Of(0.9, 0.9, 0.9), K: 1, Eps: 0.1}
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		// Whole space qualifies.
		for i := 0; i < 50; i++ {
			if !reg.Contains(vec.RandSimplex(rng, 3)) {
				t.Fatal("dominating query should qualify everywhere")
			}
		}
	})

	t.Run("query dominated by k points", func(t *testing.T) {
		pts := []vec.Vec{vec.Of(0.9, 0.9), vec.Of(0.95, 0.95)}
		q := Query{Q: vec.Of(0.1, 0.1), K: 2, Eps: 0.05}
		reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reg.Empty() {
			t.Fatalf("region should be empty, got %v", reg.Intervals())
		}
		regE, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		if !regE.Empty() {
			t.Fatal("EPT should agree the region is empty")
		}
	})

	t.Run("query in dataset", func(t *testing.T) {
		pts := []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.6, 0.4), vec.Of(0.4, 0.6)}
		q := Query{Q: pts[0].Clone(), K: 1, Eps: 0.1}
		reg, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		// q itself never counts against q: the plane h_{q,q} has normal
		// εq ≥ 0 and is dropped. The middle of the space qualifies.
		if !reg.Contains(vec.Of(0.5, 0.5)) {
			t.Fatal("q at its own position should qualify for ε=0.1")
		}
	})

	t.Run("duplicate points", func(t *testing.T) {
		p := vec.Of(0.8, 0.3)
		pts := []vec.Vec{p, p.Clone(), p.Clone(), vec.Of(0.3, 0.8)}
		pts2, q := pts, Query{Q: vec.Of(0.6, 0.6), K: 2, Eps: 0.05}
		want, _, err := solveOn(context.Background(), BruteForceSolver{}, pts2, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := solveOn(context.Background(), SweepingSolver{}, pts2, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts2, q, u)
			if margin < boundaryMargin {
				continue
			}
			if want.Contains(u) != got.Contains(u) {
				t.Fatalf("duplicate points: disagreement at %v", u)
			}
		}
		gotE, _, err := solveOn(context.Background(), EPTSolver{}, pts2, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts2, q, u)
			if margin < boundaryMargin {
				continue
			}
			if want.Contains(u) != gotE.Contains(u) {
				t.Fatalf("duplicate points (EPT): disagreement at %v", u)
			}
		}
	})

	t.Run("k larger than n", func(t *testing.T) {
		pts := []vec.Vec{vec.Of(0.9, 0.9), vec.Of(0.8, 0.8)}
		q := Query{Q: vec.Of(0.1, 0.1), K: 10, Eps: 0.0}
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		// Fewer than k points can ever beat q: everything qualifies.
		for i := 0; i < 30; i++ {
			if !reg.Contains(vec.RandSimplex(rng, 2)) {
				t.Fatal("k > n should qualify everywhere")
			}
		}
	})

	t.Run("empty dataset", func(t *testing.T) {
		q := Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 0.1}
		reg, _, err := solveOn(context.Background(), EPTSolver{}, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if reg.Empty() {
			t.Fatal("no competitors: whole space qualifies")
		}
	})

	t.Run("invalid queries error", func(t *testing.T) {
		pts := []vec.Vec{vec.Of(0.5, 0.5)}
		if _, _, err := solveOn(context.Background(), EPTSolver{}, pts, Query{Q: vec.Of(0.5, 0.5), K: 0, Eps: 0.1}); err == nil {
			t.Error("k=0 should error")
		}
		if _, _, err := solveOn(context.Background(), SweepingSolver{}, pts, Query{Q: vec.Of(0.5, 0.5, 0.5), K: 1, Eps: 0.1}); err == nil {
			t.Error("3-d query to Sweeping should error")
		}
		if _, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{}}, pts, Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 2}); err == nil {
			t.Error("ε=2 should error")
		}
		if _, _, err := solveOn(context.Background(), EPTSolver{}, []vec.Vec{vec.Of(0.5, 0.5, 0.5)}, Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 0.1}); err == nil {
			t.Error("mismatched point dims should error")
		}
	})
}

func TestSampleSizeFor(t *testing.T) {
	n := SampleSizeFor(0.1, 0.05, 4)
	if n < 400 || n > 1000 {
		t.Fatalf("N = %d outside plausible range for ρ=0.1 δ=0.05 d=4", n)
	}
	if SampleSizeFor(0, 0.05, 4) != 0 || SampleSizeFor(0.1, 0, 4) != 0 {
		t.Fatal("invalid parameters should return 0")
	}
	// Shrinking ρ increases N quadratically.
	if SampleSizeFor(0.05, 0.05, 4) < 3*n {
		t.Fatal("N should grow ~1/ρ²")
	}
}

package core

// Empirical verification of the paper's lemmas, one test per lemma. These
// tests pin the implementation to the paper's claims rather than to
// implementation details.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"rrq/internal/geom"
	"rrq/internal/skyband"
	"rrq/internal/topk"
	"rrq/internal/vec"
)

// Lemma 3.5: q is a (k,ε)-regret point w.r.t. u iff u lies in fewer than k
// negative half-spaces of the arrangement.
func TestLemma35CountingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 50; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 20, d)
		q.Eps = 0.01 + rng.Float64()*0.2 // ε > 0 so the ratio form is exact
		for i := 0; i < 40; i++ {
			u := vec.RandSimplex(rng, d)
			count, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			byCount := count < q.K
			byRatio := RegretRatio(pts, q, u) < q.Eps
			if byCount != byRatio {
				t.Fatalf("d=%d: count says %v, ratio says %v at %v", d, byCount, byRatio, u)
			}
		}
	}
}

// Lemma 4.1: no utility vector beyond the k-th ranked inclusive crossing
// qualifies (2-d).
func TestLemma41InclusiveCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		pts, q := randomInstance(rng, 25, 2)
		ps := buildPlanes(pts, q, &Arena{})
		k := ps.KEff(q.K)
		if k <= 0 {
			continue
		}
		var incl []float64
		for _, h := range ps.Crossing {
			w := h.Normal
			if w[0] < 0 {
				incl = append(incl, w[1]/(w[1]-w[0]))
			}
		}
		if len(incl) < k {
			continue
		}
		sort.Float64s(incl)
		tk := incl[k-1]
		// Sample beyond the cutoff: must never qualify.
		for i := 0; i < 30; i++ {
			tt := tk + (1-tk)*rng.Float64()
			if tt <= tk+1e-6 {
				continue
			}
			u := vec.Of(tt, 1-tt)
			count, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if count < q.K {
				t.Fatalf("u at t=%v beyond lh_%d crossing %v qualifies (count=%d)", tt, k, tk, count)
			}
		}
	}
}

// Lemma 4.2: at most 2k hyper-planes cross the reduced sweep window, so
// the sweep inspects O(k) partitions.
func TestLemma42WindowPlaneCount(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		pts, q := randomInstance(rng, 120, 2)
		ps := buildPlanes(pts, q, &Arena{})
		k := ps.KEff(q.K)
		if k <= 0 {
			continue
		}
		var incl, excl []float64
		for _, h := range ps.Crossing {
			w := h.Normal
			tt := w[1] / (w[1] - w[0])
			if w[0] < 0 {
				incl = append(incl, tt)
			} else {
				excl = append(excl, tt)
			}
		}
		tHi := 1.0
		if len(incl) >= k {
			tHi, _ = topk.KthMinScratch(incl, k, nil)
		}
		tLo := 0.0
		if len(excl) >= k {
			sort.Float64s(excl)
			tLo = excl[len(excl)-k]
		}
		inWindow := 0
		for _, tt := range append(append([]float64(nil), incl...), excl...) {
			if tt > tLo+geom.Tol && tt < tHi-geom.Tol {
				inWindow++
			}
		}
		if inWindow > 2*k {
			t.Fatalf("window holds %d crossings, bound is 2k = %d", inWindow, 2*k)
		}
	}
}

// Lemma 5.2: component-wise dominance of unit normals implies negative
// half-space containment.
func TestLemma52NormalDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	checked := 0
	for trial := 0; trial < 400 && checked < 60; trial++ {
		d := 2 + rng.Intn(3)
		w1, w2 := vec.New(d), vec.New(d)
		for i := range w1 {
			w1[i] = rng.NormFloat64()
			w2[i] = w1[i] - rng.Float64() // w1 ≥ w2 component-wise
		}
		if w1.Norm() < 1e-6 || w2.Norm() < 1e-6 {
			continue
		}
		v1, v2 := w1.Unit(), w2.Unit()
		dominates := true
		for i := range v1 {
			if v1[i] < v2[i] {
				dominates = false
				break
			}
		}
		if !dominates {
			continue
		}
		checked++
		h1 := geom.NewHyperplane(v1, 0)
		h2 := geom.NewHyperplane(v2, 1)
		// Every simplex point in h1⁻ must lie in h2⁻.
		for i := 0; i < 60; i++ {
			u := vec.RandSimplex(rng, d)
			if h1.Eval(u) < -1e-9 && h2.Eval(u) > 1e-9 {
				t.Fatalf("dominance violated: u=%v in h1⁻ but not h2⁻ (v1=%v v2=%v)", u, v1, v2)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d dominated pairs generated; test ineffective", checked)
	}
}

// Lemma 5.3: half-space coverage is inherited by sub-cells.
func TestLemma53CoverageInheritance(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		d := 3 + rng.Intn(2)
		cell := geom.NewSimplex(d)
		// Cut once to get a parent, once more for a child.
		var child *geom.Cell
		for cut := 0; cut < 6; cut++ {
			w := vec.New(d)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			if w.Norm() < 1e-6 {
				continue
			}
			h := geom.NewHyperplane(w, cut)
			if cell.Relation(h) != geom.RelCross {
				continue
			}
			neg, pos := cell.Split(h)
			if neg != nil && pos != nil {
				child = neg
				break
			}
		}
		if child == nil {
			continue
		}
		w := vec.New(d)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if w.Norm() < 1e-6 {
			continue
		}
		h := geom.NewHyperplane(w, 99)
		switch cell.Relation(h) {
		case geom.RelPos:
			if child.Relation(h) == geom.RelNeg {
				t.Fatal("parent in h⁺ but child reported in h⁻")
			}
		case geom.RelNeg:
			if child.Relation(h) == geom.RelPos {
				t.Fatal("parent in h⁻ but child reported in h⁺")
			}
		}
	}
}

// Lemmas 5.4 / 5.5: outer-sphere coverage implies cell coverage; inner-
// sphere intersection implies cell intersection. Verified through the
// Relation pipeline against the exact vertex test.
func TestLemma5455SphereSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 80; trial++ {
		d := 3 + rng.Intn(2)
		cell := geom.NewSimplex(d)
		for cut := 0; cut < 4; cut++ {
			w := vec.New(d)
			for i := range w {
				w[i] = rng.NormFloat64()
			}
			if w.Norm() < 1e-6 {
				continue
			}
			h := geom.NewHyperplane(w, cut)
			if cell.Relation(h) != geom.RelCross {
				continue
			}
			neg, pos := cell.Split(h)
			if rng.Intn(2) == 0 && neg != nil {
				cell = neg
			} else if pos != nil {
				cell = pos
			}
		}
		w := vec.New(d)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		if w.Norm() < 1e-6 {
			continue
		}
		h := geom.NewHyperplane(w, 77)
		rel := cell.Relation(h)
		// Verify against dense samples: coverage claims must never be
		// contradicted by a point strictly on the other side.
		for i := 0; i < 80; i++ {
			p := cell.SamplePoint(rng)
			s := h.Eval(p)
			if rel == geom.RelPos && s < -1e-7 {
				t.Fatalf("RelPos contradicted by sample with s=%v", s)
			}
			if rel == geom.RelNeg && s > 1e-7 {
				t.Fatalf("RelNeg contradicted by sample with s=%v", s)
			}
		}
	}
}

// Lemma 5.7: every partition A-PC constructs contains its sample and
// qualifies in full.
func TestLemma57APCPartitionQualifies(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 25, d)
		reg, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 40, Seed: int64(trial)}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range reg.Cells() {
			for i := 0; i < 25; i++ {
				u := c.SamplePoint(rng)
				count, margin := CountBetter(pts, q, u)
				if margin < boundaryMargin {
					continue
				}
				if count >= q.K {
					t.Fatalf("A-PC partition contains unqualified %v (count=%d k=%d)", u, count, q.K)
				}
			}
		}
	}
}

// Lemma 5.10: the sample size formula finds large partitions with the
// stated confidence. Statistical check: with N = N(ρ, δ) samples, a region
// of volume ratio > ρ is hit in nearly every repetition.
func TestLemma510SampleSizeFindsLargeRegions(t *testing.T) {
	rng := rand.New(rand.NewSource(510))
	const rho, delta = 0.2, 0.1
	d := 3
	n := SampleSizeFor(rho, delta, d)
	// Construct a region of volume ratio just above ρ: a half-space cut.
	h := geom.NewHyperplane(vec.Of(1, -0.5, -0.2), 0)
	target := geom.NewSimplex(d).Clip(h, +1)
	ratio := geom.MeasureCells([]*geom.Cell{target}, target.Dim(), rng, 20000)
	if ratio <= rho {
		t.Skipf("constructed region ratio %v ≤ ρ; adjust the plane", ratio)
	}
	misses := 0
	const reps = 60
	for rep := 0; rep < reps; rep++ {
		hit := false
		for i := 0; i < n; i++ {
			if target.Contains(vec.RandSimplex(rng, d)) {
				hit = true
				break
			}
		}
		if !hit {
			misses++
		}
	}
	// Expected miss probability ≤ δ; allow generous slack for a 60-rep
	// estimate.
	if float64(misses)/reps > 2*delta {
		t.Fatalf("missed the large region %d/%d times with N=%d", misses, reps, n)
	}
}

// The hyper-plane reduction of §5.1.2 (built on Lemma 5.2) must never
// change the answer.
func TestHyperplaneReductionPreservesAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(512))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 40, d)
		full, _, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{NoReduction: true}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		reduced, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			u := vec.RandSimplex(rng, d)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if full.Contains(u) != reduced.Contains(u) {
				t.Fatalf("reduction changed the answer at %v", u)
			}
		}
	}
}

// The skyband-based reduction must agree with the quadratic definition of
// Lemma 5.2 dominance counting.
func TestReductionMatchesQuadraticDominance(t *testing.T) {
	rng := rand.New(rand.NewSource(513))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 60, d)
		ps := buildPlanes(pts, q, &Arena{})
		k := ps.KEff(q.K)
		if k <= 0 || len(ps.Crossing) == 0 {
			continue
		}
		kept := reduceAndOrderPlanesOpt(ps.Crossing, k, false, false, &Arena{}, NewCtxChecker(context.Background(), 0))
		keptIDs := map[int]bool{}
		for _, h := range kept {
			keptIDs[h.ID] = true
		}
		// Quadratic check: a plane is kept iff strictly dominated (in the
		// reversed order of Lemma 5.2) by fewer than k planes.
		for _, h := range ps.Crossing {
			domCount := 0
			for _, g := range ps.Crossing {
				if g.ID != h.ID && skyband.Dominates(h.Normal, g.Normal) {
					domCount++
				}
			}
			want := domCount < k
			if keptIDs[h.ID] != want {
				t.Fatalf("plane %d kept=%v, quadratic dominance says %v (count=%d k=%d)",
					h.ID, keptIDs[h.ID], want, domCount, k)
			}
		}
	}
}

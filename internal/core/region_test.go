package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/vec"
)

func TestMergeIntervals(t *testing.T) {
	got := MergeIntervals([][2]float64{{0.5, 0.7}, {0.1, 0.3}, {0.3, 0.5}})
	if len(got) != 1 || got[0][0] != 0.1 || got[0][1] != 0.7 {
		t.Fatalf("merge = %v", got)
	}
	got = MergeIntervals([][2]float64{{0.1, 0.2}, {0.5, 0.6}})
	if len(got) != 2 {
		t.Fatalf("disjoint merge = %v", got)
	}
	if MergeIntervals(nil) != nil {
		t.Fatal("empty merge should be nil")
	}
	// Overlapping contained interval.
	got = MergeIntervals([][2]float64{{0.1, 0.9}, {0.2, 0.3}})
	if len(got) != 1 || got[0] != [2]float64{0.1, 0.9} {
		t.Fatalf("contained merge = %v", got)
	}
}

func TestIntervalRegionBasics(t *testing.T) {
	r := NewIntervalRegion([][2]float64{{0.1, 0.3}, {0.6, 0.8}})
	if r.Dim() != 2 || r.Empty() || r.NumPieces() != 2 {
		t.Fatal("basic accessors broken")
	}
	cases := []struct {
		t    float64
		want bool
	}{
		{0.2, true}, {0.1, true}, {0.3, true}, {0.45, false}, {0.7, true}, {0.9, false}, {0.0, false},
	}
	for _, c := range cases {
		u := vec.Of(c.t, 1-c.t)
		if got := r.Contains(u); got != c.want {
			t.Errorf("Contains(t=%v) = %v, want %v", c.t, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	if m := r.Measure(rng, 0); math.Abs(m-0.4) > 1e-12 {
		t.Errorf("Measure = %v, want exact 0.4", m)
	}
	for i := 0; i < 20; i++ {
		u := r.SamplePoint(rng)
		if !r.Contains(u) {
			t.Fatalf("sample %v outside region", u)
		}
	}
}

func TestEmptyRegion(t *testing.T) {
	r := EmptyRegion(3)
	if !r.Empty() || r.NumPieces() != 0 {
		t.Fatal("empty region not empty")
	}
	if r.Contains(vec.SimplexCenter(3)) {
		t.Fatal("empty region contains a point")
	}
	rng := rand.New(rand.NewSource(1))
	if r.SamplePoint(rng) != nil {
		t.Fatal("empty region sampled a point")
	}
	if r.Measure(rng, 100) != 0 {
		t.Fatal("empty region has measure")
	}
}

func TestIntervalsPanicsOnHighDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EmptyRegion(3).Intervals()
}

func TestCellRegionIntervalsDerived(t *testing.T) {
	// EPT in 2-d produces cells; Intervals() must derive and merge them to
	// the same answer Sweeping gives.
	pts := table3()
	q := Query{Q: vec.Of(0.4, 0.7), K: 1, Eps: 0.1}
	sw, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	ep, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	si, ei := sw.Intervals(), ep.Intervals()
	if len(si) != len(ei) {
		t.Fatalf("interval counts differ: %v vs %v", si, ei)
	}
	for i := range si {
		if math.Abs(si[i][0]-ei[i][0]) > 1e-7 || math.Abs(si[i][1]-ei[i][1]) > 1e-7 {
			t.Fatalf("interval %d: %v vs %v", i, si[i], ei[i])
		}
	}
}

func TestRegionMeasureAgreesAcrossSolvers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, q := randomInstance(rng, 25, 3)
	ep, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	bf, _, err := solveOn(context.Background(), BruteForceSolver{MaxPlanes: 100}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	m1 := ep.Measure(rand.New(rand.NewSource(9)), 20000)
	m2 := bf.Measure(rand.New(rand.NewSource(9)), 20000)
	if math.Abs(m1-m2) > 0.02 {
		t.Fatalf("measures differ: EPT %v vs brute %v", m1, m2)
	}
}

func TestEPTStatsCounters(t *testing.T) {
	pts := []vec.Vec{}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		pts = append(pts, vec.Of(0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64(), 0.2+0.6*rng.Float64()))
	}
	q := Query{Q: vec.Of(0.82, 0.82, 0.82), K: 3, Eps: 0.05}
	_, st, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanesInserted > st.PlanesBuilt {
		t.Fatalf("reduction increased planes: %+v", st)
	}
	if st.NodesCreated < 1 {
		t.Fatalf("no nodes created: %+v", st)
	}
	if st.NodesCreated != 1+2*st.Splits {
		t.Fatalf("node/split accounting off: %+v", st)
	}
}

// Exact 3-d measure (disjoint cell regions) agrees with Monte-Carlo.
func TestExact3DMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		pts, q := randomInstance(rng, 40, 3)
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		exact := reg.Measure(nil, 0) // exact path ignores the rng
		mc := geomMC(reg, rng)
		if math.Abs(exact-mc) > 0.02 {
			t.Fatalf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

func geomMC(reg *Region, rng *rand.Rand) float64 {
	hit := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if reg.Contains(vec.RandSimplex(rng, reg.Dim())) {
			hit++
		}
	}
	return float64(hit) / n
}

func TestSampleUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	var reg *Region
	for {
		pts, q := randomInstance(rng, 30, 3)
		var err error
		reg, _, err = solveOn(context.Background(), EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reg.Empty() {
			break
		}
	}
	mean := vec.New(3)
	const n = 300
	for i := 0; i < n; i++ {
		u := reg.SampleUniform(rng, 0)
		if u == nil || !reg.Contains(u) {
			t.Fatalf("uniform sample %v not in region", u)
		}
		for j := range mean {
			mean[j] += u[j] / n
		}
	}
	if !vec.OnSimplex(mean, 0.5) {
		t.Fatalf("sample mean %v implausible", mean)
	}
	if EmptyRegion(3).SampleUniform(rng, 10) != nil {
		t.Fatal("empty region sampled a point")
	}
}

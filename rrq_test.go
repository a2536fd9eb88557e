package rrq

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"rrq/internal/core"
	"rrq/internal/vec"
)

// regionOf keeps the region of a SolveContext result, for tests that check only the
// answer.
func regionOf(res Result, err error) (*Region, error) { return res.Region, err }

func table3Dataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewDataset([][]float64{{0.2, 0.92}, {0.7, 0.54}, {0.6, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(nil); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}}); err == nil {
		t.Error("1-d dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Error("ragged dataset accepted")
	}
	ds := table3Dataset(t)
	if ds.Len() != 3 || ds.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d", ds.Len(), ds.Dim())
	}
	// NewDataset must copy: mutating the input must not leak in.
	raw := [][]float64{{0.5, 0.5}, {0.6, 0.4}}
	ds2, _ := NewDataset(raw)
	raw[0][0] = 99
	if ds2.PointAt(0)[0] == 99 {
		t.Error("dataset aliases caller memory")
	}
}

func TestSolvePaperExample(t *testing.T) {
	ds := table3Dataset(t)
	q := Query{Q: Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	region, err := regionOf(SolveContext(context.Background(), ds, q))
	if err != nil {
		t.Fatal(err)
	}
	if region.IsEmpty() {
		t.Fatal("region should not be empty")
	}
	if !region.Contains(Vector{0.5, 0.5}) {
		t.Fatal("u = (0.5, 0.5) must qualify (Example 3.3)")
	}
}

// E-PT and LP-CTA answer the same region, and A-PC's is no larger, on a
// query whose exact answer has pieces: on an empty one every solver that
// returns nothing would agree.
func TestSolveAlgorithmsAgree(t *testing.T) {
	ds := SyntheticDataset(Independent, 80, 3, 5)
	q := Query{Q: ds.RandomQuery(7), K: 4, Epsilon: 0.1}
	exact, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumPartitions() == 0 {
		t.Fatal("precondition: the exact answer is empty; the agreement check is vacuous")
	}
	lpcta, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(LPCTAAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	me := exact.Measure(20000)
	ml := lpcta.Measure(20000)
	if math.Abs(me-ml) > 0.01 {
		t.Fatalf("measures differ: E-PT %v vs LP-CTA %v", me, ml)
	}
	apc, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(APCAlgo), WithSamples(200), WithSeed(3)))
	if err != nil {
		t.Fatal(err)
	}
	if apc.Measure(20000) > me+0.01 {
		t.Fatal("A-PC region larger than exact region")
	}
}

// A 3-d E-PT answer is a set of disjoint pieces, so its measure is exact
// and ignores the sample count.
func TestMeasureExact3D(t *testing.T) {
	ds := SyntheticDataset(Independent, 80, 3, 5)
	q := Query{Q: ds.RandomQuery(7), K: 4, Epsilon: 0.1}
	region, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if m1, mBig := region.Measure(1), region.Measure(100000); m1 != mBig || m1 <= 0 || m1 >= 1 {
		t.Fatalf("Measure(1) = %v, Measure(100000) = %v; want one exact share in (0,1)", m1, mBig)
	}
}

func TestSolveAutoDispatch(t *testing.T) {
	ds2 := table3Dataset(t)
	r2, err := regionOf(SolveContext(context.Background(), ds2, Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Intervals2D(); len(got) != 1 {
		t.Fatalf("auto 2-d should sweep to one interval, got %v", got)
	}
	ds3 := SyntheticDataset(Independent, 30, 3, 2)
	if _, err := SolveContext(context.Background(), ds3, Query{Q: ds3.RandomQuery(1), K: 2, Epsilon: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveErrors(t *testing.T) {
	ds := table3Dataset(t)
	if _, err := SolveContext(context.Background(), ds, Query{Q: Point{0.4, 0.7}, K: 0, Epsilon: 0.1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SolveContext(context.Background(), ds, Query{Q: Point{0.4, 0.7, 0.1}, K: 1, Epsilon: 0.1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := SolveContext(context.Background(), ds, Query{Q: Point{0.4, 0.7}, K: 1, Epsilon: 0.1}, WithAlgorithm(Algorithm(99))); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// Sweeping answers only d = 2: asking for it on 3-d data is a configuration
// error when the Prepared or index is built — not a failure of every solve
// after it.
func TestSweepingRejectedBeyond2D(t *testing.T) {
	ds3 := SyntheticDataset(Independent, 30, 3, 7)
	sweep := WithAlgorithm(SweepingAlgo)
	if _, err := Prepare(ds3, sweep); err == nil || !strings.Contains(err.Error(), "d = 2") {
		t.Errorf("Prepare: err = %v, want the d = 2 requirement", err)
	}
	if _, err := BuildIndex(ds3, sweep); err == nil || !strings.Contains(err.Error(), "d = 2") {
		t.Errorf("BuildIndex: err = %v, want the d = 2 requirement", err)
	}
	ix, err := BuildIndex(ds3)
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := ix.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIndex(&saved, sweep); err == nil {
		t.Error("LoadIndex accepted Sweeping on 3-d data")
	}
	// The same option on 2-d data, and Auto on 3-d, stay accepted.
	if _, err := Prepare(SyntheticDataset(Independent, 30, 2, 7), sweep); err != nil {
		t.Errorf("Sweeping on 2-d data: %v", err)
	}
	if _, err := Prepare(ds3); err != nil {
		t.Errorf("Auto on 3-d data: %v", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Algorithm
	}{
		{"auto", Auto},
		{"sweeping", SweepingAlgo},
		{"sweep", SweepingAlgo},
		{"SWEEP", SweepingAlgo},
		{"ept", EPTAlgo},
		{"apc", APCAlgo},
		{"LPCTA", LPCTAAlgo},
		{"brute", BruteForceAlgo},
	} {
		got, err := ParseAlgorithm(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "e-pt", "bruteforce"} {
		if _, err := ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q) accepted", bad)
		}
	}
}

func TestReverseTopKVersusRRQ(t *testing.T) {
	ds := SyntheticDataset(Independent, 50, 3, 7)
	q := ds.RandomQuery(2)
	rtk, err := ReverseTopK(ds, q, 3)
	if err != nil {
		t.Fatal(err)
	}
	rrq0, err := regionOf(SolveContext(context.Background(), ds, Query{Q: q, K: 3, Epsilon: 0}, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rtk.Measure(10000)-rrq0.Measure(10000)) > 1e-12 {
		t.Fatal("reverse top-k must equal RRQ at ε=0")
	}
	// Relaxing ε grows the region.
	rrq10, err := regionOf(SolveContext(context.Background(), ds, Query{Q: q, K: 3, Epsilon: 0.1}, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if rrq10.Measure(10000) < rtk.Measure(10000)-0.01 {
		t.Fatal("ε=0.1 region smaller than ε=0 region")
	}
}

func TestRegretRatio(t *testing.T) {
	ds := table3Dataset(t)
	got := RegretRatio(ds, Point{0.4, 0.7}, 2, Vector{0.5, 0.5})
	want := 0.01 / 0.56
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ratio = %v, want %v", got, want)
	}
}

func TestRegionSampleAndMeasure(t *testing.T) {
	ds := SyntheticDataset(Independent, 60, 3, 9)
	q := Query{Q: ds.RandomQuery(3), K: 5, Epsilon: 0.15}
	region, err := regionOf(SolveContext(context.Background(), ds, q))
	if err != nil {
		t.Fatal(err)
	}
	if region.IsEmpty() {
		t.Skip("region empty for this instance")
	}
	u := region.Sample(4)
	if u == nil || !region.Contains(u) {
		t.Fatalf("sample %v not in region", u)
	}
	if m := region.Measure(5000); m <= 0 || m > 1 {
		t.Fatalf("measure = %v", m)
	}
}

func TestKSkybandPreprocessingPreservesAnswers(t *testing.T) {
	ds := SyntheticDataset(Independent, 300, 3, 11)
	q := Query{Q: ds.RandomQuery(5), K: 3, Epsilon: 0.1}
	full, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	pruned := ds.KSkyband(q.K)
	if pruned.Len() >= ds.Len() {
		t.Fatalf("skyband did not prune: %d of %d", pruned.Len(), ds.Len())
	}
	reduced, err := regionOf(SolveContext(context.Background(), pruned, q, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	// Only skyband points can rank in any top-k, so the answer region is
	// unchanged by pruning.
	if math.Abs(full.Measure(20000)-reduced.Measure(20000)) > 0.01 {
		t.Fatalf("skyband pruning changed the answer: %v vs %v",
			full.Measure(20000), reduced.Measure(20000))
	}
}

func TestPBAIndexRoundTrip(t *testing.T) {
	ds := SyntheticDataset(Independent, 25, 3, 13)
	ix, err := BuildPBAIndex(ds, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Q: ds.RandomQuery(7), K: 2, Epsilon: 0.1}
	got, err := ix.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Measure(20000)-want.Measure(20000)) > 0.01 {
		t.Fatal("PBA+ index answer disagrees with E-PT")
	}
}

func TestPBABudgetSurfaced(t *testing.T) {
	ds := SyntheticDataset(Anticorrelated, 60, 3, 17)
	_, err := BuildPBAIndex(ds, 5, 8)
	if !errors.Is(err, ErrPBABudget) {
		t.Fatalf("err = %v, want ErrPBABudget", err)
	}
}

func TestRealDatasetAccess(t *testing.T) {
	for _, name := range []string{"Island", "Weather", "Car", "NBA"} {
		ds, err := RealDataset(name, 500)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != 500 {
			t.Fatalf("%s: len %d", name, ds.Len())
		}
	}
	if _, err := RealDataset("bogus", 10); err == nil {
		t.Fatal("bogus real dataset accepted")
	}
}

func TestNormalize(t *testing.T) {
	rows := [][]float64{{5, -2}, {1, 3}}
	n, err := NewNormalizedDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 2 || n.Dim() != 2 {
		t.Fatalf("Len/Dim = %d/%d, want 2/2", n.Len(), n.Dim())
	}
	for i := 0; i < n.Len(); i++ {
		for _, x := range n.PointAt(i) {
			if x <= 0 || x > 1 {
				t.Fatalf("normalized value %v out of (0,1]", x)
			}
		}
	}
	// A finite column whose span overflows float64 is rescaled, not NaN.
	huge, err := NewNormalizedDataset([][]float64{{1e308, 0.5}, {-1e308, 0.7}})
	if err != nil {
		t.Fatalf("finite column spanning past MaxFloat64 rejected: %v", err)
	}
	if p, q := huge.PointAt(0), huge.PointAt(1); p[0] != 1 || !(q[0] > 0 && q[0] < 1e-3) {
		t.Fatalf("huge column rescaled to %v, %v; want 1 and a small positive value", p[0], q[0])
	}
	// The caller's rows are copied, never rescaled in place.
	if rows[0][0] != 5 || rows[0][1] != -2 || rows[1][0] != 1 || rows[1][1] != 3 {
		t.Fatalf("NewNormalizedDataset mutated its input: %v", rows)
	}
	// Shape and finiteness are checked before rescaling: a ragged row or a
	// NaN is a *DataError, not a panic inside the rescale.
	for _, bad := range []struct {
		name        string
		rows        [][]float64
		point, attr int
	}{
		{"ragged short", [][]float64{{5, -2}, {1}}, 1, -1},
		{"ragged long", [][]float64{{5, -2}, {1, 3, 4}}, 1, -1},
		{"NaN", [][]float64{{5, -2}, {1, math.NaN()}}, 1, 1},
		{"-Inf", [][]float64{{math.Inf(-1), -2}, {1, 3}}, 0, 0},
	} {
		var de *DataError
		if _, err := NewNormalizedDataset(bad.rows); !errors.As(err, &de) || de.Point != bad.point || de.Attr != bad.attr {
			t.Errorf("%s: err = %v, want *DataError{Point:%d Attr:%d}", bad.name, err, bad.point, bad.attr)
		}
	}
	if _, err := NewNormalizedDataset(nil); err == nil {
		t.Error("empty dataset accepted")
	}
}

// Every Dataset constructor yields points that pass the data rule — the
// invariant that lets Prepare, BuildIndex and BuildPBAIndex trust them.
func TestDatasetConstructorsPassDataRule(t *testing.T) {
	check := func(name string, pts []vec.Vec, dim int) {
		t.Helper()
		if err := core.CheckPoints(pts, dim); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, dist := range []DistType{Independent, Correlated, Anticorrelated} {
		for d := 2; d <= 6; d++ {
			ds := SyntheticDataset(dist, 500, d, int64(d))
			name := fmt.Sprintf("Synthetic(%v, d=%d)", dist, d)
			check(name, ds.points(), ds.Dim())
			sky := ds.KSkyband(3)
			check(name+".KSkyband(3)", sky.points(), sky.Dim())
		}
	}
	for _, name := range []string{"Island", "Weather", "Car", "NBA"} {
		ds, err := RealDataset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(name, ds.points(), ds.Dim())
	}
	ds, err := NewDataset([][]float64{{0.2, 0.9}, {3, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	check("NewDataset", ds.points(), ds.Dim())
	nd, err := NewNormalizedDataset([][]float64{{-4, 0}, {1e6, -1e-9}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	check("NewNormalizedDataset", nd.points(), nd.Dim())

	ix, err := BuildIndex(SyntheticDataset(Anticorrelated, 200, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("LoadIndex", loaded.inner.Snapshot().Points(), loaded.Dim())
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		Auto: "Auto", SweepingAlgo: "Sweeping", EPTAlgo: "E-PT",
		APCAlgo: "A-PC", LPCTAAlgo: "LP-CTA", BruteForceAlgo: "BruteForce",
	}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), want)
		}
	}
}

func TestNewDatasetRejectsNaN(t *testing.T) {
	if _, err := NewDataset([][]float64{{math.NaN(), 0.5}}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := NewDataset([][]float64{{math.Inf(1), 0.5}}); err == nil {
		t.Error("Inf accepted")
	}
}

func TestShareProfilePublicAPI(t *testing.T) {
	ds := SyntheticDataset(Independent, 200, 3, 31)
	q := ds.RandomQuery(7)
	sp, err := NewShareProfile(ds, q, 5, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The curve must agree with a direct solve at ε = 0.1.
	reg, err := regionOf(SolveContext(context.Background(), ds, Query{Q: q, K: 5, Epsilon: 0.1}, WithAlgorithm(EPTAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(sp.Share(0.1) - reg.Measure(20000)); diff > 0.02 {
		t.Fatalf("profile and solve disagree by %v", diff)
	}
	if eps := sp.EpsForShare(0.5); sp.Share(eps) < 0.5-1e-9 {
		t.Fatal("EpsForShare target not reached")
	}
}

// Solvers and regions must be safe for concurrent use (solvers share no
// state; regions are immutable). Run with -race.
func TestConcurrentSolves(t *testing.T) {
	ds := SyntheticDataset(Independent, 150, 3, 41)
	region, err := regionOf(SolveContext(context.Background(), ds, Query{Q: ds.RandomQuery(1), K: 3, Epsilon: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			q := Query{Q: ds.RandomQuery(int64(w)), K: 2 + w%3, Epsilon: 0.05 * float64(1+w%3)}
			r, err := regionOf(SolveContext(context.Background(), ds, q))
			if err != nil {
				done <- err
				return
			}
			// Concurrent reads of a shared region.
			for i := 0; i < 50; i++ {
				region.Contains(Vector{0.3, 0.3, 0.4})
				r.NumPartitions()
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

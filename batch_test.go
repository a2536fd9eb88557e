package rrq

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// batchCase pairs an algorithm configuration with a dataset it can handle.
type batchCase struct {
	name string
	ds   *Dataset
	opts []Option
}

func batchCases(t *testing.T) []batchCase {
	t.Helper()
	ds2 := SyntheticDataset(Independent, 60, 2, 11)
	ds3 := SyntheticDataset(Independent, 30, 3, 12)
	return []batchCase{
		{"sweeping-2d", ds2, []Option{WithAlgorithm(SweepingAlgo)}},
		{"ept-3d", ds3, []Option{WithAlgorithm(EPTAlgo)}},
		{"apc-3d", ds3, []Option{WithAlgorithm(APCAlgo), WithSamples(100), WithSeed(7)}},
		{"lpcta-3d", ds3, []Option{WithAlgorithm(LPCTAAlgo)}},
		{"brute-3d", ds3, []Option{WithAlgorithm(BruteForceAlgo)}},
	}
}

func batchQueries(ds *Dataset, n int) []Query {
	qs := make([]Query, n)
	for i := range qs {
		qs[i] = Query{Q: ds.RandomQuery(int64(i + 1)), K: 3, Epsilon: 0.1}
	}
	return qs
}

// TestSolveBatchMatchesSequential checks the core batch contract: for every
// algorithm and worker count, SolveBatch returns byte-identical JSON to N
// sequential Solve calls.
func TestSolveBatchMatchesSequential(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range batchCases(t) {
		queries := batchQueries(tc.ds, 6)
		want := make([][]byte, len(queries))
		for i, q := range queries {
			r, err := regionOf(SolveContext(context.Background(), tc.ds, q, tc.opts...))
			if err != nil {
				t.Fatalf("%s: sequential Solve(%d): %v", tc.name, i, err)
			}
			js, err := r.MarshalJSON()
			if err != nil {
				t.Fatalf("%s: marshal %d: %v", tc.name, i, err)
			}
			want[i] = js
		}
		for _, w := range workerCounts {
			opts := append([]Option{WithWorkers(w)}, tc.opts...)
			report, err := SolveBatch(context.Background(), tc.ds, queries, opts...)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if len(report.Results) != len(queries) {
				t.Fatalf("%s workers=%d: %d results for %d queries", tc.name, w, len(report.Results), len(queries))
			}
			if report.Solved != len(queries) || report.Failed != 0 {
				t.Fatalf("%s workers=%d: report counts solved=%d failed=%d", tc.name, w, report.Solved, report.Failed)
			}
			for i, res := range report.Results {
				if res.Err != nil {
					t.Fatalf("%s workers=%d query %d: %v", tc.name, w, i, res.Err)
				}
				js, err := res.Region.MarshalJSON()
				if err != nil {
					t.Fatalf("%s workers=%d marshal %d: %v", tc.name, w, i, err)
				}
				if !bytes.Equal(js, want[i]) {
					t.Errorf("%s workers=%d query %d: batch JSON differs from sequential\nbatch: %s\nseq:   %s",
						tc.name, w, i, js, want[i])
				}
			}
		}
	}
}

// TestSolveBatchErrorIsolation checks that one failing query does not affect
// its neighbours.
func TestSolveBatchErrorIsolation(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 3)
	queries := []Query{
		{Q: ds.RandomQuery(1), K: 2, Epsilon: 0.1},
		{Q: ds.RandomQuery(2), K: 0, Epsilon: 0.1}, // invalid k
		{Q: Point{0.5, 0.5}, K: 2, Epsilon: 0.1},   // wrong dimension
		{Q: ds.RandomQuery(3), K: 2, Epsilon: 0.1},
	}
	for _, w := range []int{1, 2} {
		report, err := SolveBatch(context.Background(), ds, queries, WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		results := report.Results
		for _, i := range []int{0, 3} {
			if results[i].Err != nil {
				t.Errorf("workers=%d: valid query %d failed: %v", w, i, results[i].Err)
			}
			if results[i].Region == nil {
				t.Errorf("workers=%d: valid query %d has no region", w, i)
			}
		}
		for _, i := range []int{1, 2} {
			if results[i].Err == nil {
				t.Errorf("workers=%d: invalid query %d did not fail", w, i)
			}
			if results[i].Region != nil {
				t.Errorf("workers=%d: invalid query %d has a region", w, i)
			}
			var qe *QueryError
			if !errors.As(results[i].Err, &qe) {
				t.Errorf("workers=%d: invalid query %d error %v is not a *QueryError", w, i, results[i].Err)
			}
		}
		if report.Solved != 2 || report.Failed != 2 {
			t.Errorf("workers=%d: report counts solved=%d failed=%d, want 2/2", w, report.Solved, report.Failed)
		}
	}
}

// TestSolveBatchPreCanceled checks that an already-canceled context fails
// every query with context.Canceled and runs no solver work.
func TestSolveBatchPreCanceled(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	report, err := SolveBatch(ctx, ds, batchQueries(ds, 4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range report.Results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}

// TestSolveBatchMidBatchCancel cancels a running batch and checks that every
// failure — in-flight aborts and unstarted queries alike — surfaces as
// context.Canceled, while already-finished queries keep their answers.
func TestSolveBatchMidBatchCancel(t *testing.T) {
	ds := SyntheticDataset(Independent, 3000, 4, 9)
	queries := batchQueries(ds, 16)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	report, err := SolveBatch(ctx, ds, queries, WithWorkers(1), WithAlgorithm(EPTAlgo))
	if err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for i, res := range report.Results {
		switch {
		case res.Err == nil:
			if res.Region == nil {
				t.Errorf("query %d: no error but no region", i)
			}
		case errors.Is(res.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("query %d: err = %v, want nil or context.Canceled", i, res.Err)
		}
	}
	// The workload takes far longer than 5ms in total, so at least the tail
	// of the batch must have been cut off.
	if canceled == 0 {
		t.Skip("batch finished before cancellation; nothing to assert")
	}
}

// TestSolveBatchDeadline checks that a context deadline surfaces as
// ErrDeadline for in-flight and unstarted queries alike.
func TestSolveBatchDeadline(t *testing.T) {
	ds := SyntheticDataset(Independent, 3000, 4, 9)
	queries := batchQueries(ds, 16)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	report, err := SolveBatch(ctx, ds, queries, WithWorkers(1), WithAlgorithm(EPTAlgo))
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, res := range report.Results {
		if res.Err == nil {
			continue
		}
		failed++
		if !errors.Is(res.Err, ErrDeadline) {
			t.Errorf("query %d: err = %v, want ErrDeadline", i, res.Err)
		}
	}
	if failed == 0 {
		t.Skip("batch finished inside 1ms; nothing to assert")
	}
}

// TestPreparedReuse checks the Prepared serving model: one preprocessing
// handle answering single queries and batches interchangeably, with the
// skyband prefilter preserving the region measure.
func TestPreparedReuse(t *testing.T) {
	ds := SyntheticDataset(Independent, 200, 3, 5)
	q := Query{Q: ds.RandomQuery(1), K: 4, Epsilon: 0.1}

	plain, err := Prepare(ds)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := plain.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.PlanesBuilt == 0 {
		t.Error("stats not populated")
	}
	if res1.Elapsed <= 0 {
		t.Error("elapsed time not populated")
	}
	r1 := res1.Region
	// The same Prepared must serve repeated and batched calls identically.
	rep := plain.SolveBatch(context.Background(), []Query{q, q})
	for i, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("batch query %d: %v", i, r.Err)
		}
		a, _ := r.Region.MarshalJSON()
		b, _ := r1.MarshalJSON()
		if !bytes.Equal(a, b) {
			t.Errorf("batch query %d differs from direct solve", i)
		}
	}

	// The skyband prefilter may re-partition the region but must not change
	// the answer set.
	banded, err := Prepare(ds, WithSkybandPrefilter(true))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := banded.Solve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := r1.Measure(20000), res2.Region.Measure(20000)
	if diff := m1 - m2; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("skyband prefilter changed the region measure: %v vs %v", m1, m2)
	}
}

// TestKSkybandNonPositiveK pins the documented contract: the k ≤ 0 skyband
// is empty (no point is dominated by fewer than zero others), with the
// dimension preserved.
func TestKSkybandNonPositiveK(t *testing.T) {
	ds := table3Dataset(t)
	for _, k := range []int{0, -1, -100} {
		sb := ds.KSkyband(k)
		if sb.Len() != 0 {
			t.Errorf("KSkyband(%d).Len() = %d, want 0", k, sb.Len())
		}
		if sb.Dim() != ds.Dim() {
			t.Errorf("KSkyband(%d).Dim() = %d, want %d", k, sb.Dim(), ds.Dim())
		}
		if q := sb.RandomQuery(1); q != nil {
			t.Errorf("RandomQuery on the empty %d-skyband = %v, want nil", k, q)
		}
	}
	// Sanity: a positive k still filters rather than empties.
	if ds.KSkyband(1).Len() == 0 {
		t.Error("1-skyband of a non-degenerate dataset is empty")
	}
}

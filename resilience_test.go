package rrq

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// resilienceDataset is a 2-d market where LP-CTA does enough LP work to
// trip a small budget while Sweeping answers the same queries within it.
func resilienceDataset(t *testing.T) (*Dataset, Query) {
	t.Helper()
	ds := SyntheticDataset(Independent, 300, 2, 13)
	for seed := int64(1); seed < 30; seed++ {
		q := Query{Q: ds.RandomQuery(seed), K: 10, Epsilon: 0.2}
		res, err := SolveContext(context.Background(), ds, q, WithAlgorithm(LPCTAAlgo))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Region.IsEmpty() && res.Stats.LPSolves > 200 {
			return ds, q
		}
	}
	t.Fatal("precondition: no query makes LP-CTA work hard enough; pick new seeds")
	return nil, Query{}
}

// "Exact, else approximate" from the library: an exact solve that exhausts
// its work budget fails with a typed *BudgetError, and the caller's
// fallback is the same query again on the anytime tier, which answers with
// a sound region and an accuracy receipt.
func TestWithWorkBudgetFallback(t *testing.T) {
	ds, q := resilienceDataset(t)
	_, err := SolveContext(context.Background(), ds, q,
		WithAlgorithm(LPCTAAlgo), WithWorkBudget(50))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Limit != 50 {
		t.Fatalf("BudgetError.Limit = %d, want 50", be.Limit)
	}

	res, err := SolveContext(context.Background(), ds, q,
		WithAlgorithm(LPCTAAlgo), WithWorkBudget(50), WithAnytime(time.Second))
	if err != nil {
		t.Fatalf("anytime retry: %v", err)
	}
	if res.Tier != TierAnytime || res.Accuracy == nil {
		t.Fatalf("retry tier %v accuracy %+v, want anytime with a receipt", res.Tier, res.Accuracy)
	}
	exact, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(SweepingAlgo)))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 200; i++ {
		u := res.Region.Sample(i)
		if u == nil {
			break
		}
		if !exact.Contains(u) {
			t.Fatalf("anytime sample %v outside the exact region", u)
		}
	}
}

// WithQueryTimeout applies per query, not per batch: a batch under a
// per-query timeout that each query individually fits completes fully.
func TestWithQueryTimeoutPerQuery(t *testing.T) {
	ds := SyntheticDataset(Independent, 60, 3, 7)
	queries := make([]Query, 12)
	for i := range queries {
		queries[i] = Query{Q: ds.RandomQuery(int64(i + 1)), K: 3, Epsilon: 0.1}
	}
	report, err := SolveBatch(context.Background(), ds, queries,
		WithAlgorithm(EPTAlgo), WithQueryTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed != 0 || report.Solved != len(queries) {
		t.Fatalf("solved=%d failed=%d, want all %d solved", report.Solved, report.Failed, len(queries))
	}
}

// The typed data errors of the hardened construction path. NewDataset
// applies the solvers' data rule where the dataset is built: every
// rejected input is a *DataError from construction, with the Point and
// Attr that Prepare reports.
func TestNewDatasetTypedErrors(t *testing.T) {
	cases := []struct {
		name        string
		points      [][]float64
		point, attr int
	}{
		{"NaN", [][]float64{{0.5, 0.5}, {0.5, math.NaN()}}, 1, 1},
		{"dimension mismatch", [][]float64{{0.5, 0.5}, {0.5}}, 1, -1},
		{"zero attribute", [][]float64{{0.5, 0.5}, {0.3, 0.2}, {0.4, 0}}, 2, 1},
		{"negative attribute", [][]float64{{0.5, 0.5}, {-0.1, 0.2}}, 1, 0},
		{"dimension 1", [][]float64{{0.5}, {0.6}}, -1, -1},
	}
	for _, tc := range cases {
		_, err := NewDataset(tc.points)
		var de *DataError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err = %v, want *DataError", tc.name, err)
		}
		if de.Point != tc.point || de.Attr != tc.attr {
			t.Fatalf("%s: DataError{Point:%d Attr:%d}, want {%d, %d}", tc.name, de.Point, de.Attr, tc.point, tc.attr)
		}
	}

	// Raw data with zero and negative values is the normalizing
	// constructor's job, and its result is in the solver domain.
	ds, err := NewNormalizedDataset([][]float64{{5, -2}, {0, 4}})
	if err != nil {
		t.Fatalf("raw data rejected by NewNormalizedDataset: %v", err)
	}
	if _, err := SolveContext(context.Background(), ds, Query{Q: Point{0.5, 0.5}, K: 1, Epsilon: 0.1}); err != nil {
		t.Fatalf("normalized dataset rejected: %v", err)
	}
}

// A dataset dimension below 2 is the same typed *DataError{Point: -1,
// Attr: -1} from every constructor and every builder that takes a Dataset.
func TestTypedDimensionErrors(t *testing.T) {
	oneD := SyntheticDataset(Independent, 50, 1, 1)
	rows := [][]float64{{0.5}, {0.6}}
	cases := []struct {
		name string
		run  func() error
	}{
		{"BuildIndex", func() error { _, err := BuildIndex(oneD); return err }},
		{"BuildPBAIndex", func() error { _, err := BuildPBAIndex(oneD, 2, 0); return err }},
		{"Prepare", func() error { _, err := Prepare(oneD); return err }},
		{"NewDataset", func() error { _, err := NewDataset(rows); return err }},
		{"NewNormalizedDataset", func() error { _, err := NewNormalizedDataset(rows); return err }},
	}
	for _, tc := range cases {
		var de *DataError
		if err := tc.run(); !errors.As(err, &de) || de.Point != -1 || de.Attr != -1 {
			t.Errorf("%s: err = %v, want *DataError{Point: -1, Attr: -1}", tc.name, err)
		}
	}
}

// Non-positive query coordinates are rejected with a typed *QueryError.
func TestQueryPositivityValidation(t *testing.T) {
	ds := SyntheticDataset(Independent, 20, 2, 1)
	for _, bad := range []Point{{0, 0.5}, {-0.1, 0.5}} {
		_, err := SolveContext(context.Background(), ds, Query{Q: bad, K: 1, Epsilon: 0.1})
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("q=%v: err = %v, want *QueryError", bad, err)
		}
		if qe.Field != "q" {
			t.Fatalf("q=%v: QueryError.Field = %q, want q", bad, qe.Field)
		}
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"rrq/internal/vec"
)

// solveOn answers q over pts the way every caller does: one unfiltered
// Prepare at the points' dimension (the query's when there are none), then
// s.Solve on it.
func solveOn(ctx context.Context, s Solver, pts []vec.Vec, q Query) (*Region, Stats, error) {
	d := q.Q.Dim()
	if len(pts) > 0 {
		d = pts[0].Dim()
	}
	prep, err := Prepare(pts, d, false)
	if err != nil {
		return nil, Stats{}, err
	}
	return s.Solve(ctx, prep, q)
}

func TestCtxCheckerDisabledOnBackground(t *testing.T) {
	c := NewCtxChecker(context.Background(), 0xff)
	for i := 0; i < 10_000; i++ {
		if c.Stop() {
			t.Fatal("background checker reported stop")
		}
	}
	if c.Failed() || c.Err() != nil {
		t.Fatal("background checker failed")
	}
	c = NewCtxChecker(nil, 0xff)
	if c.Stop() {
		t.Fatal("nil-context checker reported stop")
	}
}

func TestCtxCheckerFailFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := NewCtxChecker(ctx, 0xfff)
	// An already-expired context must trip before any amortized interval.
	if !c.Failed() || !c.Stop() {
		t.Fatal("expired context not detected at construction")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", c.Err())
	}
}

func TestCtxCheckerDeadlineMapping(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := NewCtxChecker(ctx, 0)
	if !c.Stop() {
		t.Fatal("passed deadline not detected")
	}
	if !errors.Is(c.Err(), ErrDeadline) {
		t.Fatalf("Err() = %v, want ErrDeadline", c.Err())
	}
}

// TestEPTContextTimeoutResponsive proves the acceptance criterion: a
// context.WithTimeout abort returns within one amortized check interval, not
// after finishing the instance. The instance is sized so a full solve takes
// far longer than the timeout plus the slack we allow for the abort.
func TestEPTContextTimeoutResponsive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pts, q := randomInstance(rng, 4000, 5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := solveOn(ctx, EPTSolver{}, pts, q)
	elapsed := time.Since(start)
	if err == nil {
		t.Skip("instance solved inside 1ms; nothing to assert")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// One amortized interval is 0xfff node visits — microseconds of work.
	// A generous bound still proves the abort did not run to completion.
	if elapsed > 2*time.Second {
		t.Fatalf("abort took %v, want within one amortized check interval", elapsed)
	}
}

func TestContextSolversMatchPlainCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts, q := randomInstance(rng, 60, 3)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Solver{EPTSolver{}, BruteForceSolver{}} {
		got, st, err := s.Solve(context.Background(), prep, q)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if st.PlanesBuilt == 0 {
			t.Errorf("%s: stats not populated", s.Name())
		}
		for i := 0; i < 200; i++ {
			u := vec.RandSimplex(rng, 3)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if got.Contains(u) != want.Contains(u) {
				t.Fatalf("%s diverged from EPT at %v", s.Name(), u)
			}
		}
	}
}

// Prepare trusts its points and checks only the dimension: below 2 is a
// typed *DataError with no single point at fault (Point and Attr −1).
func TestPreparedValidation(t *testing.T) {
	var de *DataError
	if _, err := Prepare(nil, 1, false); !errors.As(err, &de) || de.Point != -1 || de.Attr != -1 {
		t.Errorf("dimension 1: err = %v, want a *DataError with Point and Attr −1", err)
	}
}

// CheckPoints is the one data rule: dimension, then per point shape,
// finiteness and strict positivity, each fault a *DataError naming the
// first offending point and attribute. CheckRow is its shape-and-finiteness
// half and accepts zero and negative values.
func TestCheckPoints(t *testing.T) {
	cases := []struct {
		name        string
		dim         int
		pts         []vec.Vec
		point, attr int
	}{
		{"dimension 1", 1, []vec.Vec{vec.Of(0.5)}, -1, -1},
		{"ragged point", 2, []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.1, 0.2, 0.3)}, 1, -1},
		{"NaN", 2, []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.5, math.NaN())}, 1, 1},
		{"+Inf", 2, []vec.Vec{vec.Of(math.Inf(1), 0.5)}, 0, 0},
		{"zero", 3, []vec.Vec{vec.Of(0.5, 0.5, 0.5), vec.Of(0.3, 0.2, 0.1), vec.Of(0.4, 0, 0.2)}, 2, 1},
		{"negative", 2, []vec.Vec{vec.Of(0.5, 0.5), vec.Of(-0.1, 0.2)}, 1, 0},
	}
	for _, tc := range cases {
		var de *DataError
		if err := CheckPoints(tc.pts, tc.dim); !errors.As(err, &de) || de.Point != tc.point || de.Attr != tc.attr {
			t.Errorf("%s: err = %v, want *DataError{Point:%d Attr:%d}", tc.name, err, tc.point, tc.attr)
		}
	}
	if err := CheckPoints([]vec.Vec{vec.Of(0.5, 1), vec.Of(2, 0.1)}, 2); err != nil {
		t.Errorf("positive finite points rejected: %v", err)
	}
	if err := CheckRow(0, vec.Of(-3, 0), 2); err != nil {
		t.Errorf("CheckRow rejected a finite raw row: %v", err)
	}
}

func TestPreparedSkybandCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := randomInstance(rng, 200, 3)
	prep, err := Prepare(pts, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	b1 := prep.PointsFor(2)
	b2 := prep.PointsFor(2)
	if &b1[0] != &b2[0] {
		t.Error("k-skyband not cached across calls")
	}
	if len(b1) > len(pts) {
		t.Error("skyband larger than the dataset")
	}
	off, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := off.PointsFor(2); len(got) != len(pts) {
		t.Error("prefilter applied while disabled")
	}
}

func TestCoreSolveBatchOrderingAndIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts, q := randomInstance(rng, 50, 3)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 9)
	for i := range queries {
		queries[i] = q
		queries[i].Q = vec.RandSimplex(rng, 3).Scale(0.9)
	}
	queries[4].K = 0 // invalid: must fail alone
	for _, w := range []int{1, 3, 0} {
		outs := SolveBatchPolicy(context.Background(), SolvePolicy{Solver: EPTSolver{}}, prep, queries, w)
		if len(outs) != len(queries) {
			t.Fatalf("workers=%d: %d outcomes", w, len(outs))
		}
		for i, o := range outs {
			if i == 4 {
				if o.Err == nil {
					t.Errorf("workers=%d: invalid query succeeded", w)
				}
				continue
			}
			if o.Err != nil {
				t.Errorf("workers=%d query %d: %v", w, i, o.Err)
			}
		}
	}
}

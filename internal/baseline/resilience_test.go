package baseline

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/faultinject"
	"rrq/internal/obs"
	"rrq/internal/vec"
)

// lpctaInstance returns a 2-d instance where LP-CTA does real tree work
// (enough LP solves to pass the amortized check cadence at least once).
func lpctaInstance(t *testing.T) ([]vec.Vec, core.Query) {
	t.Helper()
	pts := dataset.Generate(dataset.Independent, 300, 2, 13)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		q := core.Query{Q: dataset.RandQuery(rng, pts), K: 10, Eps: 0.2}
		_, st, err := solveOn(context.Background(), LPCTASolver{}, pts, q)
		if err == nil && st.Pieces > 0 && st.LPSolves > 200 {
			return pts, q
		}
	}
	t.Fatal("precondition: no query makes LP-CTA work hard enough; pick new seeds")
	return nil, core.Query{}
}

// An injected LP failure must surface as a typed *NumericalError — the
// error the server maps to 500; it is no trigger for the anytime rung.
func TestLPFaultSurfacesNumerical(t *testing.T) {
	pts, q := lpctaInstance(t)
	prep, err := core.Prepare(pts, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	lpBoom := errors.New("injected LP failure")
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.LPSolve,
		Err:   lpBoom,
		Times: 1,
	})
	ctx := faultinject.ContextWith(context.Background(), inj)
	_, _, err = core.SolvePolicy{Solver: LPCTASolver{}}.Solve(ctx, prep, q, -1)
	var ne *core.NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("err = %v, want *NumericalError", err)
	}
	if ne.Solver != "LP-CTA" || !errors.Is(ne, lpBoom) {
		t.Fatalf("NumericalError{Solver:%q Err:%v}", ne.Solver, ne.Err)
	}
}

// A real (non-injected) budget failure across the cost gap the paper
// measures: LP-CTA burns an LP per relation check and trips a small budget
// with a typed *BudgetError, while the linear-time sweep answers the same
// query within it, exactly.
func TestBudgetStopsLPCTANotSweeping(t *testing.T) {
	pts, q := lpctaInstance(t)
	prep, err := core.Prepare(pts, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 50 // LP-CTA charges 64 per amortized check; Sweeping ~1
	_, _, err = core.SolvePolicy{Solver: LPCTASolver{}, WorkBudget: budget}.Solve(context.Background(), prep, q, -1)
	var be *core.BudgetError
	if !errors.As(err, &be) || be.Limit != budget {
		t.Fatalf("LP-CTA err = %v, want *BudgetError with limit %d", err, budget)
	}
	r, _, err := core.SolvePolicy{Solver: core.SweepingSolver{}, WorkBudget: budget}.Solve(context.Background(), prep, q, -1)
	if err != nil {
		t.Fatalf("Sweeping under the same budget: %v", err)
	}
	want, _, err := solveOn(context.Background(), core.SweepingSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		u := vec.Of(x, 1-x)
		if r.Contains(u) != want.Contains(u) {
			t.Fatalf("budgeted Sweeping disagrees with the plain sweep at %v", u)
		}
	}
}

// secondPollCancel is a test-only context whose Err reports
// context.Canceled from its second poll onward, canceling its parent then
// so Done closes too. The solve's CtxChecker polls once at construction,
// so LP-CTA aborts at its first amortized check, inside the insert phase.
type secondPollCancel struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int32
}

func (c *secondPollCancel) Err() error {
	if c.polls.Add(1) >= 2 {
		c.cancel()
	}
	return c.Context.Err()
}

// Mid-phase cancellation of LP-CTA: abort with context.Canceled and close
// every opened phase timer.
func TestLPCTACancelMidPhase(t *testing.T) {
	pts, q := lpctaInstance(t)
	parent, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(&secondPollCancel{Context: parent, cancel: cancel}, reg)

	_, _, err := solveOn(ctx, LPCTASolver{}, pts, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	timers := reg.Timers()
	if len(timers) == 0 {
		t.Fatal("no phase timers recorded")
	}
	for name, snap := range timers {
		if snap.Count == 0 {
			t.Errorf("phase %s opened but never closed", name)
		}
	}
}

package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"rrq/internal/dataset"
	"rrq/internal/faultinject"
	"rrq/internal/obs"
	"rrq/internal/vec"
)

// TestBatchFaultAcceptance is the acceptance scenario of the resilience
// layer: a batch of 100 queries over one shared Prepared, where one query
// panics inside an E-PT split and one exhausts its work budget. The batch
// must complete with 98 exact results, the panicked query reporting a
// per-query *SolveError (solver, batch position, stack), the
// budget-exhausted query its typed *BudgetError — with the panic counter
// visible on the metrics registry.
func TestBatchFaultAcceptance(t *testing.T) {
	pts := dataset.Generate(dataset.Independent, 80, 3, 7)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	queries := make([]Query, 100)
	for i := range queries {
		queries[i] = Query{Q: dataset.RandQuery(rng, pts), K: 4, Eps: 0.1}
	}

	// The panic is injected at the EPTSplit point, so the panicking query
	// must be one that actually reaches a split; scan for the first such
	// query (deterministic for fixed seeds).
	panicIdx := -1
	for i, q := range queries {
		if _, st, err := solveOn(context.Background(), EPTSolver{}, pts, q); err == nil && st.Splits > 0 {
			panicIdx = i
			break
		}
	}
	if panicIdx < 0 {
		t.Fatal("precondition: no query splits; pick new seeds")
	}
	budgetIdx := 42
	if panicIdx == budgetIdx {
		budgetIdx = 43
	}

	inj := faultinject.New(
		&faultinject.Fault{
			Point:  faultinject.EPTSplit,
			Match:  faultinject.MatchPoint(queries[panicIdx].Q),
			Panics: "injected split panic",
		},
		&faultinject.Fault{
			Point: faultinject.SolveStart,
			Match: faultinject.MatchPoint(queries[budgetIdx].Q),
			Err:   &BudgetError{Limit: 1, Spent: 1},
		},
	)
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(faultinject.ContextWith(context.Background(), inj), reg)

	outs := SolveBatchPolicy(ctx, SolvePolicy{Solver: EPTSolver{}}, prep, queries, 8)
	if len(outs) != len(queries) {
		t.Fatalf("%d outcomes for %d queries", len(outs), len(queries))
	}

	exact := 0
	for i, o := range outs {
		switch i {
		case panicIdx:
			var se *SolveError
			if !errors.As(o.Err, &se) {
				t.Fatalf("query %d: err = %v, want *SolveError", i, o.Err)
			}
			if se.Solver != "E-PT" || se.QueryIndex != panicIdx || len(se.Stack) == 0 {
				t.Fatalf("query %d: SolveError{Solver:%q QueryIndex:%d stack:%dB}", i, se.Solver, se.QueryIndex, len(se.Stack))
			}
			if se.Panic != "injected split panic" {
				t.Fatalf("query %d: panic value %v", i, se.Panic)
			}
			if o.Region != nil {
				t.Fatalf("query %d: panicked query must not carry a region", i)
			}
		case budgetIdx:
			var be *BudgetError
			if !errors.As(o.Err, &be) || o.Region != nil {
				t.Fatalf("query %d: err = %v, want *BudgetError and no region", i, o.Err)
			}
		default:
			if o.Err != nil {
				t.Fatalf("query %d: unexpected error %v", i, o.Err)
			}
			if o.Region == nil {
				t.Fatalf("query %d: nil region", i)
			}
			exact++
		}
	}
	if exact != 98 {
		t.Fatalf("%d exact results, want 98", exact)
	}
	counters := reg.Counters()
	if counters["solve.panics"] != 1 {
		t.Errorf("solve.panics = %d, want 1", counters["solve.panics"])
	}
}

// heavyInstance returns a 4-d instance whose E-PT solve creates tens of
// thousands of tree nodes — enough work that the amortized budget and
// cancellation checks (every 4096 node visits) are guaranteed to fire.
func heavyInstance(t *testing.T) ([]vec.Vec, Query) {
	t.Helper()
	pts := dataset.Generate(dataset.Independent, 2000, 4, 11)
	q := Query{Q: dataset.RandQuery(rand.New(rand.NewSource(5)), pts), K: 20, Eps: 0.2}
	if _, st, err := solveOn(context.Background(), EPTSolver{}, pts, q); err != nil || st.NodesCreated < 5000 || st.Pieces == 0 {
		t.Fatalf("precondition: instance too light (nodes=%d pieces=%d err=%v); pick new seeds", st.NodesCreated, st.Pieces, err)
	}
	return pts, q
}

// A real (non-injected) work budget: E-PT on a heavy instance burns tens of
// thousands of node visits, so a tiny budget must trip the amortized check
// and surface a typed *BudgetError.
func TestWorkBudgetExceeded(t *testing.T) {
	pts, q := heavyInstance(t)
	prep, err := Prepare(pts, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	pol := SolvePolicy{Solver: EPTSolver{}, WorkBudget: 10}
	_, _, err = pol.Solve(context.Background(), prep, q, -1)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if be.Limit != 10 || be.Spent < be.Limit {
		t.Fatalf("BudgetError{Limit:%d Spent:%d}", be.Limit, be.Spent)
	}

	// The budget is shared across intra-query workers: A-PC's sample
	// classification pool charges every worker's units to the solve's one
	// meter. The limit is half the pool, which no single worker of four
	// reaches alone, so only the summed account trips it — during
	// classification, before the construct phase opens.
	const samples = 4000
	reg := obs.NewRegistry()
	pol = SolvePolicy{Solver: APCSolver{Opt: APCOptions{Samples: samples, Seed: 1, Workers: 4}}, WorkBudget: samples / 2}
	_, _, err = pol.Solve(obs.ContextWithRegistry(context.Background(), reg), prep, q, -1)
	if !errors.As(err, &be) {
		t.Fatalf("parallel A-PC err = %v, want *BudgetError", err)
	}
	if be.Limit != samples/2 || be.Spent < be.Limit {
		t.Fatalf("parallel A-PC BudgetError{Limit:%d Spent:%d}", be.Limit, be.Spent)
	}
	if _, ok := reg.Timers()["phase.apc.construct"]; ok {
		t.Fatal("budget tripped after classification: the sample workers did not charge it")
	}
}

// The timeout rung of the degradation ladder at the core level: a per-query
// timeout on a delayed exact solve surfaces ErrDeadline, and the anytime
// construction then answers the same query with a sound region and an
// accuracy receipt. The rung runs through the same guarded policy, without
// the timeout it is degrading from; the delay fires once, so it stalls only
// the exact solve.
func TestQueryTimeoutDegradation(t *testing.T) {
	pts := dataset.Generate(dataset.Independent, 60, 3, 3)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Q: dataset.RandQuery(rand.New(rand.NewSource(4)), pts), K: 3, Eps: 0.1}
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.SolveStart,
		Delay: 200 * time.Millisecond,
		Times: 1,
	})
	ctx := faultinject.ContextWith(context.Background(), inj)
	pol := SolvePolicy{Solver: EPTSolver{}, QueryTimeout: 30 * time.Millisecond}
	if _, _, err := pol.Solve(ctx, prep, q, -1); !errors.Is(err, ErrDeadline) {
		t.Fatalf("exact err = %v, want ErrDeadline", err)
	}
	opt := APCOptions{Seed: 1, Budget: 50 * time.Millisecond}
	r, st, err := SolvePolicy{Solver: APCSolver{Opt: opt}}.Solve(ctx, prep, q, -1)
	if err != nil {
		t.Fatalf("anytime rung: %v", err)
	}
	acc := AccuracyOf(r, st, q, opt)
	if acc.SamplesUsed == 0 || acc.RhoBound <= 0 || acc.RhoBound > 1 {
		t.Fatalf("anytime receipt %+v", acc)
	}
	exact, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		if u := vec.RandSimplex(rng, 3); r.Contains(u) && !exact.Contains(u) {
			t.Fatalf("anytime region holds %v outside the exact region", u)
		}
	}
}

// parallelFor must convert a body panic into an error instead of crashing
// the process.
func TestParallelForPanicIsolation(t *testing.T) {
	err := parallelFor(context.Background(), 4, 100, 0xf, func(i int) {
		if i == 50 {
			panic("body boom")
		}
	})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *SolveError", err)
	}
	if se.Panic != "body boom" || len(se.Stack) == 0 {
		t.Fatalf("SolveError{Panic:%v stack:%dB}", se.Panic, len(se.Stack))
	}
}

// pollCancelCtx is a test-only context whose Err reports context.Canceled
// from its second poll onward, canceling its parent then so Done closes
// too. A solve's CtxChecker polls once at construction, before its first
// phase opens, so a single solve aborts at its first amortized check —
// mid-phase. With gate set, polls count only once a phase timer has opened
// on it: a batch also polls before each query starts, and would otherwise
// abort before any phase opened.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	gate   *obs.Registry
	polls  atomic.Int32
}

func (c *pollCancelCtx) Err() error {
	if c.gate == nil || len(c.gate.Timers()) > 0 {
		if c.polls.Add(1) >= 2 {
			c.cancel()
		}
	}
	return c.Context.Err()
}

// cancelMidPhase builds a context that cancels itself mid-phase (gated on
// its own phase timers when gated is set), plus the registry it carries to
// audit those timers afterwards.
func cancelMidPhase(t *testing.T, gated bool) (context.Context, *obs.Registry) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg := obs.NewRegistry()
	pc := &pollCancelCtx{Context: ctx, cancel: cancel}
	if gated {
		pc.gate = reg
	}
	return obs.ContextWithRegistry(pc, reg), reg
}

// assertPhasesBalanced fails if any phase timer was opened (created) but
// never observed a closing — the dangling-open-phase bug the idempotent
// closers fix.
func assertPhasesBalanced(t *testing.T, reg *obs.Registry) {
	t.Helper()
	timers := reg.Timers()
	if len(timers) == 0 {
		t.Error("no phase timers recorded; the solve never opened a phase")
	}
	for name, snap := range timers {
		if snap.Count == 0 {
			t.Errorf("phase %s opened but never closed", name)
		}
	}
}

// Mid-phase cancellation of every solver: the solve must abort with
// context.Canceled and leave every opened phase timer closed.
func TestCancelMidPhaseAllSolvers(t *testing.T) {
	pts4, q4 := heavyInstance(t)

	// The 2-d solvers need a query whose sweep window survives reduction
	// (pieces > 0) and enough crossing planes that the brute-force
	// enumeration passes its amortized check cadence; scan for one.
	pts2 := dataset.Generate(dataset.Independent, 3000, 2, 13)
	rng := rand.New(rand.NewSource(8))
	var q2 Query
	found := false
	for i := 0; i < 30 && !found; i++ {
		q2 = Query{Q: dataset.RandQuery(rng, pts2), K: 20, Eps: 0.2}
		if _, st, err := solveOn(context.Background(), SweepingSolver{}, pts2, q2); err == nil && st.Pieces > 0 && st.PlanesBuilt > 300 {
			found = true
		}
	}
	if !found {
		t.Fatal("precondition: no 2-d query yields pieces; pick new seeds")
	}

	cases := []struct {
		name   string
		solve  func(ctx context.Context) error
		phases bool // solver instruments phase timers
	}{
		{name: "Sweeping", phases: true, solve: func(ctx context.Context) error {
			_, _, err := solveOn(ctx, SweepingSolver{}, pts2, q2)
			return err
		}},
		{name: "EPT-serial", phases: true, solve: func(ctx context.Context) error {
			_, _, err := solveOn(ctx, EPTSolver{}, pts4, q4)
			return err
		}},
		{name: "APC-serial", phases: true, solve: func(ctx context.Context) error {
			_, _, err := solveOn(ctx, APCSolver{Opt: APCOptions{Samples: 4000, Seed: 1}}, pts4, q4)
			return err
		}},
		{name: "APC-parallel", phases: true, solve: func(ctx context.Context) error {
			_, _, err := solveOn(ctx, APCSolver{Opt: APCOptions{Samples: 4000, Seed: 1, Workers: 4}}, pts4, q4)
			return err
		}},
		{name: "BruteForce2D", phases: false, solve: func(ctx context.Context) error {
			_, _, err := solveOn(ctx, BruteForceSolver{}, pts2, q2)
			return err
		}},
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ctx, reg := cancelMidPhase(t, false)
			err := c.solve(ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if c.phases {
				assertPhasesBalanced(t, reg)
			}
		})
	}
}

// A canceled batch leaves unstarted queries with ctx.Err() and closes the
// phases of the in-flight ones — the batch-level view of the same property.
func TestCancelMidBatchPhasesBalanced(t *testing.T) {
	pts := dataset.Generate(dataset.Anticorrelated, 1500, 3, 21)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{Q: dataset.RandQuery(rng, pts), K: 6, Eps: 0.05}
	}
	ctx, reg := cancelMidPhase(t, true)
	outs := SolveBatchPolicy(ctx, SolvePolicy{Solver: EPTSolver{}}, prep, queries, 2)
	failed := 0
	for _, o := range outs {
		if o.Err != nil {
			failed++
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("per-query err = %v, want context.Canceled", o.Err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("cancellation had no effect on the batch")
	}
	assertPhasesBalanced(t, reg)
}

// The E-PT plane reduction is two O(m²) passes (the skyband over negated
// unit normals, then the W(h) count). At large k both run long before the
// partition tree starts, so they must observe the per-query timeout
// themselves: a 1ms timeout fails within a small multiple of itself
// instead of after the whole reduction. The same polls charge the work
// budget.
func TestEPTReductionObservesTimeout(t *testing.T) {
	pts := dataset.Generate(dataset.Independent, 8000, 3, 1)
	prep, err := Prepare(pts, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Q: dataset.RandQuery(rand.New(rand.NewSource(2)), pts), K: 1000, Eps: 0.1}
	pol := SolvePolicy{Solver: EPTSolver{}, QueryTimeout: time.Millisecond}
	start := time.Now()
	_, st, err := pol.Solve(context.Background(), prep, q, -1)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if st.PlanesBuilt < 5000 {
		t.Fatalf("precondition: only %d crossing planes; the reduction is not the long phase", st.PlanesBuilt)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("1ms timeout fired after %v: the reduction ignores the deadline", elapsed)
	}

	pol = SolvePolicy{Solver: EPTSolver{}, WorkBudget: 1000}
	_, _, err = pol.Solve(context.Background(), prep, q, -1)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BudgetError from the reduction", err)
	}
}

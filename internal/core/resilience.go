package core

// Resilient serving: panic isolation and per-query budgets. SolvePolicy is
// the serving-layer contract — a solver, a per-query wall-clock timeout and
// a work-unit budget — and SolvePolicy.Solve is the guarded entry every
// batch query runs through: panics become typed *SolveError values, and
// timeouts and budget exhaustion surface as typed errors (ErrDeadline,
// *BudgetError). The one approximate rung below an exact answer is the
// anytime tier — an APCSolver whose options set a cut budget — and it runs
// through the same guarded entry; the serving layers decide when to take
// it.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
)

// SolveError is the typed wrapper for a panic recovered from a solver or
// one of its worker goroutines: which solver, which query of the batch
// (−1 outside a batch), the panic value and the goroutine stack. One
// poisoned query surfaces as a per-query *SolveError; it never takes down
// the batch or the process.
type SolveError struct {
	Solver     string
	QueryIndex int
	Panic      any
	Stack      []byte
}

func (e *SolveError) Error() string {
	if e.QueryIndex >= 0 {
		return fmt.Sprintf("core: solver %s panicked on query %d: %v", e.Solver, e.QueryIndex, e.Panic)
	}
	return fmt.Sprintf("core: solver %s panicked: %v", e.Solver, e.Panic)
}

// BudgetError reports that a solve exceeded its work budget (see
// ContextWithWorkBudget). Limit is the budget in work units; Spent is the
// amortized count at which the overrun was detected (0 when the error was
// injected rather than measured).
type BudgetError struct {
	Limit int64
	Spent int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: work budget exceeded (limit %d, spent ≥ %d)", e.Limit, e.Spent)
}

// workMeter is the shared work-budget account of one solve attempt. Every
// CtxChecker built under the attempt's context charges it in amortized
// chunks, so the budget bounds the attempt's total work across all its
// workers, not per goroutine.
type workMeter struct {
	limit int64
	used  atomic.Int64
}

// charge adds n work units and reports whether the budget is now exceeded.
func (m *workMeter) charge(n int64) bool {
	return m.used.Add(n) > m.limit
}

// meterKey is the private context key carrying the work meter.
type meterKey struct{}

// ContextWithWorkBudget returns a context whose solves abort with a
// *BudgetError after roughly limit work units — the same units the
// amortized cancellation checks count: partition-tree node visits, LP
// relation tests, sample scans, E-PT plane-reduction steps (one per
// skyband.StopStride dominance tests). The bound is amortized (checked every
// mask+1 units per worker), so overruns are detected within one check
// interval. limit ≤ 0 returns ctx unchanged.
func ContextWithWorkBudget(ctx context.Context, limit int64) context.Context {
	if limit <= 0 {
		return ctx
	}
	return context.WithValue(ctx, meterKey{}, &workMeter{limit: limit})
}

// meterFrom extracts the work meter from ctx, or nil.
func meterFrom(ctx context.Context) *workMeter {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(meterKey{}).(*workMeter)
	return m
}

// NumericalError is the typed wrapper for a numerical failure inside a
// solver — an LP that did not reach optimality, or degenerate geometry the
// solver cannot recover from.
type NumericalError struct {
	Solver string
	Err    error
}

func (e *NumericalError) Error() string {
	return fmt.Sprintf("core: %s numerical failure: %v", e.Solver, e.Err)
}

func (e *NumericalError) Unwrap() error { return e.Err }

// SolvePolicy bundles a solver with its resilience contract: a per-query
// wall-clock timeout and a per-query work budget.
//
// Panics are isolated, never retried: a panic suggests an input the solver
// mishandles, and the serving layer's job is to report it as a typed
// *SolveError, not to paper over it. A timeout or budget failure surfaces
// as ErrDeadline or *BudgetError; answering such a query approximately is
// the caller's decision (the anytime tier: an APCSolver with a cut budget,
// under a policy without the limits it is degrading from).
type SolvePolicy struct {
	Solver       Solver
	QueryTimeout time.Duration // ≤ 0: no per-query timeout
	WorkBudget   int64         // ≤ 0: no work budget
}

// Solve runs one query under the policy: a fresh per-query timeout and
// work budget are layered onto ctx, the SolveStart fault point fires, and a
// panic anywhere under the solver — including its own worker pools, which
// recover locally and return the panic as an error — is converted to a
// typed *SolveError. queryIndex tags panic errors with the query's position
// in its batch (−1 standalone). On error the Stats still account for the
// work the failed solve did. A metrics registry riding ctx counts recovered
// panics in "solve.panics".
func (pol SolvePolicy) Solve(ctx context.Context, prep *Prepared, q Query, queryIndex int) (r *Region, st Stats, err error) {
	actx := ctx
	if pol.QueryTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(actx, pol.QueryTimeout)
		defer cancel()
	}
	actx = ContextWithWorkBudget(actx, pol.WorkBudget)
	s := pol.Solver
	defer func() {
		if rec := recover(); rec != nil {
			err = &SolveError{Solver: s.Name(), QueryIndex: queryIndex, Panic: rec, Stack: debug.Stack()}
		}
		var se *SolveError
		if errors.As(err, &se) {
			// Pool-recovered panics arrive without batch position (and the
			// shared helpers without a solver name); fill them in here.
			if se.QueryIndex < 0 {
				se.QueryIndex = queryIndex
			}
			if se.Solver == "" {
				se.Solver = s.Name()
			}
			obs.RegistryFrom(ctx).Counter("solve.panics").Inc()
		}
	}()
	if fi := faultinject.From(actx); fi != nil {
		if ferr := fi.Fire(faultinject.SolveStart, q.Q); ferr != nil {
			return nil, st, ferr
		}
	}
	return s.Solve(actx, prep, q)
}

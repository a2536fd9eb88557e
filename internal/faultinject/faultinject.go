// Package faultinject provides context-carried fault points for the solver
// stack: tests (and chaos drills) arm an Injector on the context, and
// instrumented code sites fire named points that can return an error, sleep,
// or panic on demand. With no injector armed every site compiles down to a
// single nil-check — the same capture discipline the observability hooks
// use — so production solves pay nothing.
//
// Faults can be scoped to one query of a batch with a Match predicate over
// the query point, and disarmed after a fixed number of firings with Times,
// which is what makes "query 17 panics, query 42 exhausts its budget, the
// other 98 succeed" reproducible in a deterministic test.
package faultinject

import (
	"context"
	"sync/atomic"
	"time"
)

// Point names an instrumented code site.
type Point string

// The instrumented fault points of the solver stack.
const (
	// SolveStart fires at the start of every guarded solve
	// (core.SolvePolicy.Solve), keyed by the query point. Supports Err, Delay and
	// Panics.
	SolveStart Point = "solve-start"
	// EPTSplit fires immediately before an E-PT leaf split, keyed by the
	// query point. Supports Panics and Delay; an Err poisons the solve's
	// cancellation checker and aborts with that error.
	EPTSplit Point = "ept-split"
	// LPSolve fires before every LP-CTA simplex solve, keyed by the query
	// point. An Err makes the LP report failure (a numerical fault).
	LPSolve Point = "lp-solve"
	// BudgetCheck fires when a work-budget charge is evaluated. An Err
	// surfaces as the budget-exhaustion error of the charge.
	BudgetCheck Point = "budget-check"
	// WALAppend fires before a WAL record write, keyed by the mutated point
	// (nil for deletes). Supports Err, Delay and — via ShortWrite — torn
	// and short writes: the site writes only ShortWrite bytes of the
	// encoded record before reporting Err, leaving a torn tail exactly as a
	// crash mid-write would. Because the torn bytes stay on disk for
	// recovery to repair, the WAL handle fails permanently afterwards —
	// later appends are rejected, as they would be after a real crash.
	WALAppend Point = "wal-append"
	// WALSync fires before a WAL fsync. An Err surfaces as the sync
	// failure of the append (or background flush) that triggered it.
	WALSync Point = "wal-sync"
	// CheckpointRename fires between writing a checkpoint's temporary file
	// and renaming it into place — the atomicity window. An Err aborts the
	// checkpoint with the temp file removed; the previous checkpoint stays
	// authoritative.
	CheckpointRename Point = "checkpoint-rename"
)

// Fault is one armed fault: where it fires, which queries it matches, what
// it does, and how many times.
type Fault struct {
	// Point is the code site the fault arms.
	Point Point
	// Match restricts the fault to firings whose key (the query point)
	// satisfies the predicate. A nil Match fires on every key.
	Match func(key []float64) bool
	// Delay, when positive, sleeps before the fault's effect (and also when
	// the fault has no other effect — a pure latency fault).
	Delay time.Duration
	// Err, when non-nil, is returned from the fire site.
	Err error
	// Panics, when non-nil, panics with this value at the fire site.
	Panics any
	// ShortWrite, when positive, asks the fire site to persist only the
	// first ShortWrite bytes of the payload it was about to write before
	// applying Err — the torn-tail mode of the WAL fault points. Sites read
	// it through Plan; Fire ignores it.
	ShortWrite int
	// Times bounds how often the fault fires; ≤ 0 means unlimited.
	Times int64

	hits atomic.Int64
}

// fire applies the fault's effect. Returns Err (possibly nil after a pure
// delay) or panics.
func (f *Fault) fire() error {
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panics != nil {
		panic(f.Panics)
	}
	return f.Err
}

// claim reports whether the fault should fire for key, consuming one of its
// Times slots. Safe for concurrent use.
func (f *Fault) claim(key []float64) bool {
	if f.Match != nil && !f.Match(key) {
		return false
	}
	if f.Times <= 0 {
		return true
	}
	return f.hits.Add(1) <= f.Times
}

// Injector is an armed set of faults. The zero value is not usable; build
// one with New. An Injector is safe for concurrent use by any number of
// solves and workers.
type Injector struct {
	byPoint map[Point][]*Fault
}

// New arms the given faults into an injector.
func New(faults ...*Fault) *Injector {
	in := &Injector{byPoint: make(map[Point][]*Fault)}
	for _, f := range faults {
		in.byPoint[f.Point] = append(in.byPoint[f.Point], f)
	}
	return in
}

// Fire triggers the first matching fault armed at p for the given key:
// applies its delay, panics if it is a panic fault, and returns its error
// otherwise. Returns nil when nothing armed at p matches.
func (in *Injector) Fire(p Point, key []float64) error {
	for _, f := range in.byPoint[p] {
		if f.claim(key) {
			return f.fire()
		}
	}
	return nil
}

// Plan triggers the first matching fault armed at p like Fire, but returns
// the fault itself so the site can honor effects richer than an error —
// the WAL append site reads ShortWrite from it to produce torn tails. The
// fault's delay has been applied and panics have fired by the time Plan
// returns; the caller applies ShortWrite and then reports the fault's Err.
// Returns nil when nothing armed at p matches.
func (in *Injector) Plan(p Point, key []float64) *Fault {
	for _, f := range in.byPoint[p] {
		if f.claim(key) {
			if f.Delay > 0 {
				time.Sleep(f.Delay)
			}
			if f.Panics != nil {
				panic(f.Panics)
			}
			return f
		}
	}
	return nil
}

// MatchPoint returns a Match predicate that fires only for keys exactly
// equal to q — the standard way to scope a fault to one query of a batch.
func MatchPoint(q []float64) func(key []float64) bool {
	want := append([]float64(nil), q...)
	return func(key []float64) bool {
		if len(key) != len(want) {
			return false
		}
		for i, x := range want {
			if key[i] != x {
				return false
			}
		}
		return true
	}
}

// ctxKey is the private context key carrying the injector.
type ctxKey struct{}

// ContextWith returns a context carrying the injector. A nil injector
// returns ctx unchanged.
func ContextWith(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From extracts the injector from ctx, or nil. The nil result is what makes
// un-instrumented runs free: call sites hold the nil and skip Fire.
func From(ctx context.Context) *Injector {
	if ctx == nil {
		return nil
	}
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

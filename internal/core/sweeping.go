package core

import (
	"context"
	"fmt"

	"rrq/internal/geom"
	"rrq/internal/topk"
)

// SweepingSolver solves the 2-dimensional special case of RRQ in O(n)
// time (paper §4, Algorithm 1). The utility space is the segment
// L = {(t, 1−t) : t ∈ [0,1]} swept from (0,1) (t = 0) toward (1,0) (t = 1).
//
// A crossing plane with normal w is inclusive when its negative half-space
// contains the reference r = (1,0) (w[0] < 0): the sweep passes its
// positive side first. It is exclusive when w[0] > 0. Partition reduction
// (Lemmas 4.1, 4.2) restricts the sweep to the window between the k-th
// ranked exclusive and the k-th ranked inclusive crossings, and the counter
// update per event is O(1) (Lemma 4.3). The sweep is linear, so
// cancellation is observed once before the scan and once before the event
// sweep rather than per element.
type SweepingSolver struct{}

func (SweepingSolver) Name() string { return "Sweeping" }

func (SweepingSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := prep.Validate(q); err != nil {
		return nil, Stats{}, err
	}
	return sweepSolve(ctx, prep, q)
}

// sweepEvent is one crossing inside the sweep window.
type sweepEvent struct {
	t    float64
	incl bool
}

// sweepSolve is the sweep body; a batch's plane store, when prep has one,
// serves the (read-only) classified plane set. The solve's pooled arena
// supplies every scratch buffer, so a solve on a warm arena allocates only
// the returned region.
func sweepSolve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	var st Stats
	if q.Q.Dim() != 2 {
		return nil, st, fmt.Errorf("core: Sweeping requires d = 2, got %d", q.Q.Dim())
	}
	check := NewCtxChecker(ctx, 0)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	a := getArena()
	defer putArena(a)
	planePhase := check.Phase("phase.sweep.planes")
	defer planePhase()
	ps := prep.planes(q, a, check.reg)
	planePhase()
	st.PlanesBuilt = len(ps.Crossing)
	k := ps.KEff(q.K)
	if k <= 0 {
		return EmptyRegion(2), st, nil
	}
	sweepPhase := check.Phase("phase.sweep.sweep")
	defer sweepPhase()

	merged, err := sweepIntervals(ps, k, a, &st, check)
	if err != nil {
		return nil, st, err
	}
	st.Pieces = len(merged)
	if len(merged) == 0 {
		return EmptyRegion(2), st, nil
	}
	// The merged intervals alias arena memory; the region owns a copy.
	return NewIntervalRegion(append([][2]float64(nil), merged...)), st, nil
}

// sweepIntervals runs the window reduction, event sweep and interval merge
// over an already-classified plane set, with every buffer drawn from the
// arena. The returned intervals alias a.merged (empty when the window
// reduction already disqualified the whole segment). This is the
// allocation-free hot path of the Sweeping solver; the AllocsPerRun
// regression tests pin it at zero steady-state allocations.
func sweepIntervals(ps PlaneSet, k int, a *Arena, st *Stats, check *CtxChecker) ([][2]float64, error) {
	// Crossing parameters on L: u·w = 0 at t* = w2 / (w2 − w1).
	incl, excl := a.incl[:0], a.excl[:0]
	for _, h := range ps.Crossing {
		w := h.Normal
		t := w[1] / (w[1] - w[0])
		if w[0] < 0 {
			incl = append(incl, t)
		} else {
			excl = append(excl, t)
		}
	}
	a.incl, a.excl = incl, excl

	// Partition reduction: everything past the k-th inclusive crossing and
	// before the k-th exclusive crossing is covered by ≥ k negative
	// half-spaces (Lemma 4.1 and its mirror).
	tHi := 1.0
	if len(incl) >= k {
		tHi, a.selBuf = topk.KthMinScratch(incl, k, a.selBuf)
	}
	tLo := 0.0
	if len(excl) >= k {
		tLo, a.selBuf = topk.KthMaxScratch(excl, k, a.selBuf)
	}
	if tLo >= tHi-geom.Tol {
		return nil, nil
	}
	if check.Stop() {
		return nil, check.Err()
	}

	// Initial counter at the window start: inclusive planes already passed
	// plus exclusive planes not yet passed.
	q0 := 0
	events := a.events[:0]
	for _, t := range incl {
		switch {
		case t <= tLo+geom.Tol:
			q0++
		case t < tHi-geom.Tol:
			events = append(events, sweepEvent{t, true})
		}
	}
	for _, t := range excl {
		if t > tLo+geom.Tol {
			q0++
			if t < tHi-geom.Tol {
				events = append(events, sweepEvent{t, false})
			}
		}
	}
	a.events = events
	sortSweepEvents(events)
	st.PlanesInserted = len(events)

	// Sweep the O(k) surviving partitions with an O(1) counter update. An
	// interval is emitted only when the counter qualifies and the piece is
	// wider than the tolerance; coincident events therefore never emit
	// between themselves, so the result does not depend on their relative
	// order.
	out := a.ivs[:0]
	qc := q0
	prev := tLo
	for _, ev := range events {
		if qc < k && ev.t-prev > geom.Tol {
			out = append(out, [2]float64{prev, ev.t})
		}
		if ev.incl {
			qc++
		} else {
			qc--
		}
		prev = ev.t
	}
	if qc < k && tHi-prev > geom.Tol {
		out = append(out, [2]float64{prev, tHi})
	}
	a.ivs = out

	// The sweep emits intervals in ascending start order, so the sorted
	// merge of MergeIntervals reduces to one linear pass with the same
	// touching tolerance.
	merged := a.merged[:0]
	for _, iv := range out {
		if n := len(merged); n > 0 && iv[0] <= merged[n-1][1]+geom.Tol {
			if iv[1] > merged[n-1][1] {
				merged[n-1][1] = iv[1]
			}
		} else {
			merged = append(merged, iv)
		}
	}
	a.merged = merged
	return merged, nil
}

// sortSweepEvents sorts events by ascending parameter with a hand-rolled
// quicksort (median-of-three, insertion sort on small spans): sort.Slice
// would allocate its reflect-based swapper on every solve. Equal-parameter
// events may land in either order; the sweep's emission rule makes the
// result independent of that order.
func sortSweepEvents(ev []sweepEvent) {
	for len(ev) > 12 {
		mid := len(ev) / 2
		hi := len(ev) - 1
		if ev[mid].t < ev[0].t {
			ev[mid], ev[0] = ev[0], ev[mid]
		}
		if ev[hi].t < ev[0].t {
			ev[hi], ev[0] = ev[0], ev[hi]
		}
		if ev[mid].t < ev[hi].t {
			ev[mid], ev[hi] = ev[hi], ev[mid]
		}
		pivot := ev[hi].t
		p := 0
		for j := 0; j < hi; j++ {
			if ev[j].t < pivot {
				ev[p], ev[j] = ev[j], ev[p]
				p++
			}
		}
		ev[p], ev[hi] = ev[hi], ev[p]
		if p < len(ev)-p-1 {
			sortSweepEvents(ev[:p])
			ev = ev[p+1:]
		} else {
			sortSweepEvents(ev[p+1:])
			ev = ev[:p]
		}
	}
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].t < ev[j-1].t; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

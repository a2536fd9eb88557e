// Package index implements the served reverse-regret-query index: an
// immutable, version-stamped snapshot of a dataset together with the
// preprocessing every query used to rebuild from scratch — the exact
// dominator counts that answer any k-skyband prefilter and a deduplicated
// store of classified plane sets shared across queries.
//
// Mutations follow a copy-on-write epoch discipline: Insert and Delete
// build the next snapshot beside the current one and publish it with a
// single atomic pointer swap, so concurrent readers keep serving the epoch
// they loaded, race-free, for as long as they hold it. The k-skyband is
// maintained by delta: a snapshot stores the exact number of dominators of
// every point (not a count capped at some k), so an insertion only scans
// the new point against the dataset and a deletion only decrements the
// counts of the points the removed one dominated — membership in any
// k-skyband then is one comparison per point. Per-query derived state
// (skyband views, plane sets) is invalidated lazily: a new epoch simply
// starts with empty caches and rebuilds entries on first use.
//
// This package absorbs and retires core.Dynamic: where Dynamic re-ran the
// full arrangement walk after a deletion, an index snapshot re-serves the
// query through the maintained prefilter and shared plane storage, and any
// number of standing queries amortize the same maintenance work.
package index

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rrq/internal/core"
	"rrq/internal/skyband"
	"rrq/internal/vec"
	"rrq/internal/wal"
)

// Index is the mutable handle over a sequence of immutable snapshots.
// Readers call Snapshot (or the convenience accessors) and never block;
// writers are serialized by a mutex and publish each new epoch atomically.
type Index struct {
	pstats core.PlaneCounters // plane-store traffic across every epoch

	mu   sync.Mutex // serializes Insert/Delete
	snap atomic.Pointer[Snapshot]

	// dur, once attached by OpenDurable, write-ahead-logs every mutation
	// before its epoch is published and checkpoints on a record cadence.
	dur *Durable
}

// Stats is a read-only introspection snapshot of an index: the current
// epoch and dataset shape, the lifetime plane-cache traffic, and the
// current snapshot's materialized derived state. It is what callers get
// without wiring a metrics registry.
type Stats struct {
	// Version is the current epoch number.
	Version uint64
	// Points is the current dataset size, Dim its dimension.
	Points int
	Dim    int
	// PlaneHits / PlaneMisses count plane-store traffic over the index's
	// lifetime (across every epoch): a hit is a plane set served without
	// classification.
	PlaneHits, PlaneMisses int64
	// PlaneSets is the number of (point, ε) plane groups in the current
	// snapshot's store — keys it has seen at least twice, or that a batch
	// asked for twice — and SkybandViews its memoized k-band views.
	PlaneSets    int
	SkybandViews int
}

// Stats returns the index's current introspection snapshot. It is
// read-only and safe for concurrent use; derived state is reported as-is,
// never forced.
func (ix *Index) Stats() Stats {
	s := ix.snap.Load()
	st := Stats{
		Version:     s.version,
		Points:      len(s.pts),
		Dim:         s.dim,
		PlaneHits:   ix.pstats.Hits.Load(),
		PlaneMisses: ix.pstats.Misses.Load(),
	}
	s.mu.Lock()
	if s.prep != nil {
		st.PlaneSets = s.prep.PlaneGroups()
		st.SkybandViews = s.prep.BandViews()
	}
	s.mu.Unlock()
	return st
}

// Snapshot is one immutable epoch: the validated points, their exact
// dominator counts, and a lazily built core.Prepared over them that holds
// the derived state (memoized k-bands, the plane store) for the snapshot's
// lifetime. That state is internally synchronized, so one snapshot serves
// any number of concurrent queries.
type Snapshot struct {
	version uint64
	dim     int
	pts     []vec.Vec           // immutable
	dom     []int               // exact dominator count per point; immutable
	pstats  *core.PlaneCounters // owning index's lifetime plane-store counters

	mu   sync.Mutex
	prep *core.Prepared
}

// Build constructs the first epoch from points that already pass
// core.CheckPoints (every rrq.Dataset does; Load checks what it decodes).
// Only the dimension is checked here. The points are copied; the caller
// keeps ownership of its slice.
func Build(pts []vec.Vec, dim int) (*Index, error) {
	if err := core.CheckDim(dim); err != nil {
		return nil, err
	}
	cl := make([]vec.Vec, len(pts))
	for i, p := range pts {
		cl[i] = p.Clone()
	}
	ix := &Index{}
	ix.snap.Store(newSnapshot(1, dim, cl, skyband.DominatorCounts(cl), &ix.pstats))
	return ix, nil
}

func newSnapshot(version uint64, dim int, pts []vec.Vec, dom []int, pstats *core.PlaneCounters) *Snapshot {
	return &Snapshot{version: version, dim: dim, pts: pts, dom: dom, pstats: pstats}
}

// Snapshot returns the current epoch. The returned value stays valid (and
// immutable) regardless of later mutations.
func (ix *Index) Snapshot() *Snapshot { return ix.snap.Load() }

// Version returns the current epoch number (1 after Build, +1 per
// mutation).
func (ix *Index) Version() uint64 { return ix.snap.Load().version }

// Dim returns the dataset dimension.
func (ix *Index) Dim() int { return ix.snap.Load().dim }

// Len returns the current dataset size.
func (ix *Index) Len() int { return len(ix.snap.Load().pts) }

// Insert validates p and publishes a new epoch containing it. The dominator
// counts are maintained by delta: one scan of the dataset classifies p and
// bumps the counts of the points p dominates. Returns the new version.
func (ix *Index) Insert(p vec.Vec) (uint64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.snap.Load()
	if err := core.CheckPoint(len(old.pts), p, old.dim); err != nil {
		return old.version, err
	}
	n := len(old.pts)
	pts := make([]vec.Vec, n+1)
	copy(pts, old.pts)
	pts[n] = p.Clone()
	dom := make([]int, n+1)
	copy(dom, old.dom)
	for i, x := range old.pts {
		if skyband.Dominates(x, p) {
			dom[n]++
		}
		if skyband.Dominates(p, x) {
			dom[i]++
		}
	}
	next := newSnapshot(old.version+1, old.dim, pts, dom, old.pstats)
	if ix.dur != nil {
		if err := ix.dur.logAppend(wal.Record{Epoch: next.version, Op: wal.OpInsert, Point: pts[n]}); err != nil {
			return old.version, fmt.Errorf("index: insert not logged, mutation rejected: %w", err)
		}
	}
	ix.snap.Store(next)
	if ix.dur != nil {
		ix.dur.committed(next.version)
	}
	return next.version, nil
}

// Delete removes the point at index i (in insertion order) and publishes a
// new epoch. Only the counts of points the removed one dominated change —
// this is the delta that lets deletions keep serving instead of triggering
// the from-scratch rebuild core.Dynamic needed. An out-of-range i fails
// with a *core.DataError (Attr −1), checked under the mutation lock.
func (ix *Index) Delete(i int) (uint64, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	old := ix.snap.Load()
	if i < 0 || i >= len(old.pts) {
		return old.version, &core.DataError{Point: i, Attr: -1,
			Msg: fmt.Sprintf("delete index out of range [0,%d)", len(old.pts))}
	}
	rm := old.pts[i]
	pts := make([]vec.Vec, 0, len(old.pts)-1)
	dom := make([]int, 0, len(old.pts)-1)
	for j, x := range old.pts {
		if j == i {
			continue
		}
		c := old.dom[j]
		if skyband.Dominates(rm, x) {
			c--
		}
		pts = append(pts, x)
		dom = append(dom, c)
	}
	next := newSnapshot(old.version+1, old.dim, pts, dom, old.pstats)
	if ix.dur != nil {
		if err := ix.dur.logAppend(wal.Record{Epoch: next.version, Op: wal.OpDelete, Index: i}); err != nil {
			return old.version, fmt.Errorf("index: delete not logged, mutation rejected: %w", err)
		}
	}
	ix.snap.Store(next)
	if ix.dur != nil {
		ix.dur.committed(next.version)
	}
	return next.version, nil
}

// Version returns the snapshot's epoch number.
func (s *Snapshot) Version() uint64 { return s.version }

// Dim returns the dataset dimension.
func (s *Snapshot) Dim() int { return s.dim }

// Len returns the snapshot's dataset size.
func (s *Snapshot) Len() int { return len(s.pts) }

// Points returns the snapshot's point set (shared, read-only).
func (s *Snapshot) Points() []vec.Vec { return s.pts }

// DominatorCounts returns the exact per-point dominator counts (shared,
// read-only).
func (s *Snapshot) DominatorCounts() []int { return s.dom }

// Prepared returns the snapshot as a core.Prepared, built on first use and
// kept for the snapshot's lifetime: solvers draw their k-bands from the
// maintained counts and their classified plane sets from one store shared
// by every query on the snapshot. Plane-store traffic is tallied in the
// index's lifetime counters (Stats) and reported as index.planes.hit /
// index.planes.miss to a registry riding on the solve's context.
func (s *Snapshot) Prepared() *core.Prepared {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prep == nil {
		s.prep = core.PrepareCounted(s.pts, s.dim, s.dom, s.pstats)
	}
	return s.prep
}

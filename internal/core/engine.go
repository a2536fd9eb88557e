package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// ErrDeadline is returned when a solver exceeds its context deadline.
var ErrDeadline = errors.New("core: deadline exceeded")

// MapContextErr translates a context error into the solver error
// vocabulary: context.DeadlineExceeded becomes ErrDeadline (preserving the
// error every caller already matches on), while cancellation and other
// errors pass through unchanged.
func MapContextErr(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadline
	}
	return err
}

// CtxChecker amortizes context cancellation checks over a solver's hot
// loop: Stop consults ctx.Err() only once every mask+1 calls, so a single
// check costs a counter increment rather than an atomic load of the
// context state. A checker is not safe for concurrent use; parallel
// phases create one per worker.
//
// The checker doubles as the per-solve observability carrier: it captures
// the trace hook and metrics registry riding on the context once at
// construction, so the solver hot path pays a single nil-check per
// potential event (Emit) or phase boundary (Phase) when observability is
// off.
type CtxChecker struct {
	ctx    context.Context
	mask   uint32
	n      uint32
	err    error
	trace  obs.TraceFunc
	reg    *obs.Registry
	meter  *workMeter
	faults *faultinject.Injector
	fkey   []float64
}

// NewCtxChecker builds a checker that samples ctx every mask+1 Stop calls
// (mask must be 2^m − 1). A context that can never be canceled
// (ctx.Done() == nil, e.g. context.Background()) disables cancellation
// checking; an already-expired context trips the checker immediately, so
// solvers fail fast before doing any work. Any obs trace hook, metrics
// registry, work budget (ContextWithWorkBudget) or fault injector carried
// by ctx is captured once here, so the hot path pays one nil-check per
// facility.
func NewCtxChecker(ctx context.Context, mask uint32) *CtxChecker {
	c := &CtxChecker{
		trace:  obs.TraceFrom(ctx),
		reg:    obs.RegistryFrom(ctx),
		meter:  meterFrom(ctx),
		faults: faultinject.From(ctx),
		mask:   mask,
	}
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
		c.err = ctx.Err()
	}
	return c
}

// SetFaultKey binds the query point used to match scoped faults fired
// through this checker. A no-op when no injector is armed.
func (c *CtxChecker) SetFaultKey(key []float64) {
	if c.faults != nil {
		c.fkey = key
	}
}

// Fault fires the named fault point with the bound query key: a single
// nil-check when no injector is armed. A panic fault panics from here (the
// serving layer's recovery turns it into a *SolveError); an error fault's
// error is returned for the site to apply.
func (c *CtxChecker) Fault(p faultinject.Point) error {
	if c.faults == nil {
		return nil
	}
	return c.faults.Fire(p, c.fkey)
}

// fail poisons the checker with err: every subsequent Stop reports true and
// Err returns err. Used by fault sites that cannot propagate an error
// directly and by worker pools converting a recovered panic into an abort.
func (c *CtxChecker) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Emit delivers one trace event when tracing is on; otherwise it is a
// single nil-check.
func (c *CtxChecker) Emit(kind obs.EventKind, n int) {
	if c.trace != nil {
		c.trace(obs.Event{Kind: kind, N: n})
	}
}

// Tracing reports whether a trace hook is attached, for call sites that
// want to skip event bookkeeping entirely when off.
func (c *CtxChecker) Tracing() bool { return c.trace != nil }

// nopPhase is the shared no-op phase closer returned when metrics are off,
// so Phase allocates nothing on the disabled path.
var nopPhase = func() {}

// Phase starts a named phase timer and returns its closer. With no
// registry attached the call is a nil-check returning a shared no-op, so
// instrumented solvers cost nothing when metrics are off.
//
// The closer is idempotent: solvers close each phase at its natural end
// AND defer the closer as an abort net, so a query canceled (or failed)
// mid-phase still records exactly one observation per opened phase — no
// dangling open phases in traces.
func (c *CtxChecker) Phase(name string) func() {
	if c.reg == nil {
		return nopPhase
	}
	t := c.reg.Timer(name)
	start := time.Now()
	closed := false
	return func() {
		if closed {
			return
		}
		closed = true
		t.Observe(time.Since(start))
	}
}

// Stop counts one unit of work and reports whether the solve should abort:
// on cancellation, a passed deadline, an exhausted work budget, or an
// earlier poisoning. Cancellation and budget are both evaluated on the
// amortized cadence (every mask+1 calls), so a single Stop stays a counter
// increment plus a few nil-checks.
func (c *CtxChecker) Stop() bool {
	if c.err != nil {
		return true
	}
	if c.ctx == nil && c.meter == nil {
		return false
	}
	if c.n++; c.n&c.mask == 0 {
		if c.ctx != nil {
			c.err = c.ctx.Err()
		}
		if c.err == nil && c.meter != nil {
			chunk := int64(c.mask) + 1
			if ferr := c.Fault(faultinject.BudgetCheck); ferr != nil {
				c.err = ferr
			} else if c.meter.charge(chunk) {
				c.err = &BudgetError{Limit: c.meter.limit, Spent: c.meter.used.Load()}
			}
		}
	}
	return c.err != nil
}

// Failed reports whether an earlier Stop observed cancellation, without
// consulting the context again.
func (c *CtxChecker) Failed() bool { return c.err != nil }

// Err returns the abort cause in solver vocabulary (ErrDeadline for a
// passed deadline, context.Canceled for cancellation), or nil.
func (c *CtxChecker) Err() error { return MapContextErr(c.err) }

// Stats is the common work-counter type reported by every solver. It
// generalizes the former EPTStats: each solver fills the counters that
// apply to it and leaves the rest zero.
type Stats struct {
	PlanesBuilt    int // crossing planes before reduction
	PlanesInserted int // planes surviving reduction / entering the sweep
	NodesCreated   int // tree nodes allocated (E-PT, LP-CTA)
	Splits         int // node splits performed (E-PT lazy splits, LP-CTA)
	LPSolves       int // simplex LP solves (LP-CTA)
	Samples        int // utility samples classified (A-PC)
	Pieces         int // partitions in the returned region
}

// Add accumulates other's counters into st, for batch-level aggregation.
func (st *Stats) Add(other Stats) {
	st.PlanesBuilt += other.PlanesBuilt
	st.PlanesInserted += other.PlanesInserted
	st.NodesCreated += other.NodesCreated
	st.Splits += other.Splits
	st.LPSolves += other.LPSolves
	st.Samples += other.Samples
	st.Pieces += other.Pieces
}

// Prepared captures the per-dataset work that every solver used to repeat
// on each call: dimension validation and, when enabled, the k-skyband
// prefilter, cached per k so that a batch of queries sharing a rank
// parameter computes it once. A Prepared is safe for concurrent use.
//
// A Prepared built by PrepareIndexed instead delegates both the prefilter
// and plane construction to an index snapshot: PointsFor serves the
// snapshot's incrementally maintained k-skyband, and solvers draw their
// classified plane sets from the snapshot's deduplicated storage rather
// than rebuilding them per call.
type Prepared struct {
	pts     []vec.Vec
	dim     int
	skyband bool

	pointsFor func(k int) []vec.Vec // optional index-backed prefilter
	planes    PlaneSource           // optional shared plane storage

	mu      sync.Mutex
	bands   map[int][]vec.Vec
	counts  []int // capped dominator counts at countsK (batch sharing)
	countsK int
}

// Prepare validates pts against dim once — dimension, finiteness and the
// (0,1] positivity domain, so NaN/Inf and non-positive values are rejected
// with a typed *DataError instead of flowing silently into the geometry
// kernels — and returns the reusable preprocessing handle. When
// skybandPrefilter is set, PointsFor(k) serves the cached k-skyband instead
// of the full point set — sound for reverse regret queries because a point
// dominated by ≥ k others can only count against q on preferences where
// its dominators already do.
func Prepare(pts []vec.Vec, dim int, skybandPrefilter bool) (*Prepared, error) {
	if dim < 2 {
		return nil, fmt.Errorf("core: dimension %d < 2", dim)
	}
	for i, p := range pts {
		if p.Dim() != dim {
			return nil, dataErrf(i, -1, "dimension %d, want %d", p.Dim(), dim)
		}
		if de := validatePoint(i, p); de != nil {
			return nil, de
		}
	}
	return &Prepared{pts: pts, dim: dim, skyband: skybandPrefilter}, nil
}

// PrepareIndexed wraps an index snapshot's point storage as a Prepared
// without re-validating: the snapshot validated every point when it was
// built or mutated. pointsFor (non-nil) serves the snapshot's maintained
// k-skyband; planes (may be nil) serves classified plane sets from the
// snapshot's shared storage. Both must be safe for concurrent use, and the
// plane sets they return are treated as read-only by every solver.
func PrepareIndexed(pts []vec.Vec, dim int, pointsFor func(k int) []vec.Vec, planes PlaneSource) *Prepared {
	return &Prepared{pts: pts, dim: dim, pointsFor: pointsFor, planes: planes}
}

// Dim returns the validated dataset dimension.
func (p *Prepared) Dim() int { return p.dim }

// Len returns the full dataset size.
func (p *Prepared) Len() int { return len(p.pts) }

// Points returns the full validated point set (not copied; callers must
// not mutate).
func (p *Prepared) Points() []vec.Vec { return p.pts }

// PointsFor returns the point set a solver should run on for rank k: the
// index-maintained k-skyband for an indexed Prepared, the cached k-skyband
// when prefiltering is enabled, the full set otherwise.
func (p *Prepared) PointsFor(k int) []vec.Vec {
	if p.pointsFor != nil {
		return p.pointsFor(k)
	}
	if !p.skyband || k < 1 {
		return p.pts
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.bands[k]; ok {
		return b
	}
	if p.bands == nil {
		p.bands = make(map[int][]vec.Vec)
	}
	b := skyband.Select(p.pts, skyband.KSkyband(p.pts, k))
	p.bands[k] = b
	return b
}

// Solver is the uniform solving contract every algorithm implements:
// cancellable via ctx (deadlines surface as ErrDeadline, cancellation as
// context.Canceled), fed from shared per-dataset preprocessing, and
// reporting common work counters. Implementations must be stateless or
// internally synchronized: SolveBatch calls Solve concurrently.
//
// The Prepared path validates the query against the prepared dimension and
// trusts the points (validated once at Prepare / index-build time); the
// free *Context functions re-validate the full instance on every call.
type Solver interface {
	Name() string
	Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error)
}

// validatePrepared checks q for a Prepared-path solve: intrinsic validity
// first (against the query's own dimension, so a malformed query point
// reports field "q"), then the match against the prepared dataset dimension
// (field "dim") — the same error precedence the free *Context functions
// produce through ValidateInstance.
func validatePrepared(q Query, dim int) error {
	if err := q.Validate(q.Q.Dim()); err != nil {
		return err
	}
	if q.Q.Dim() != dim {
		return errDimMismatch(dim, q.Q.Dim())
	}
	return nil
}

// SweepingSolver answers 2-d queries with the linear-time sweep (§4).
type SweepingSolver struct{}

func (SweepingSolver) Name() string { return "Sweeping" }

func (SweepingSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := validatePrepared(q, prep.dim); err != nil {
		return nil, Stats{}, err
	}
	return sweepSolve(ctx, prep.PointsFor(q.K), q, prep.planes)
}

// EPTSolver answers queries exactly with the partition tree (§5.1).
type EPTSolver struct {
	Opt EPTOptions
}

func (EPTSolver) Name() string { return "E-PT" }

func (s EPTSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := validatePrepared(q, prep.dim); err != nil {
		return nil, Stats{}, err
	}
	return eptSolve(ctx, prep.PointsFor(q.K), q, s.Opt, prep.planes)
}

// APCSolver answers queries approximately by progressive construction
// (§5.2). Opt.Rng must be nil when the solver is used concurrently; seeds
// are deterministic per query, so batch answers match sequential ones.
type APCSolver struct {
	Opt APCOptions
}

func (APCSolver) Name() string { return "A-PC" }

func (s APCSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	return APCContext(ctx, prep.PointsFor(q.K), q, s.Opt)
}

// BruteForceSolver is the exact reference solver: the direct 2-d crossing
// enumeration, or the full arrangement in higher dimensions (bounded by
// MaxPlanes, default 64).
type BruteForceSolver struct {
	MaxPlanes int
}

func (BruteForceSolver) Name() string { return "BruteForce" }

func (s BruteForceSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := validatePrepared(q, prep.dim); err != nil {
		return nil, Stats{}, err
	}
	pts := prep.PointsFor(q.K)
	if prep.Dim() == 2 {
		return brute2DSolve(ctx, pts, q, prep.planes)
	}
	maxPlanes := s.MaxPlanes
	if maxPlanes <= 0 {
		maxPlanes = 64
	}
	return bruteNDSolve(ctx, pts, q, maxPlanes, prep.planes)
}

// BatchOutcome is one query's result within a batch: the answer, the work
// counters and wall time, or the per-query error (other queries are
// unaffected). A recovered panic surfaces as a per-query *SolveError in
// Err.
//
// Dedup marks a slot whose query was an exact duplicate (equal Query.Key())
// of an earlier one: the region pointer, stats and error are copies of the
// representative's single solve (regions are immutable, so sharing the
// pointer is safe) and Elapsed is zero — no work was performed for the
// slot.
type BatchOutcome struct {
	Region  *Region
	Stats   Stats
	Elapsed time.Duration
	Err     error
	Dedup   bool
}

// BatchOptions tunes how SolveBatchOptions dispatches a batch.
type BatchOptions struct {
	// Workers bounds the worker pool; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Share enables batch-scoped cross-query sharing: one capped skyband
	// computation at the batch's maximum k serves every query's prefilter,
	// classified plane sets are built once per (query point, ε) group and
	// narrowed per k, and the dispatch order clusters queries on shared
	// state. Answers are byte-identical to independent solves.
	Share bool
	// Dedup collapses exact-duplicate queries (equal Query.Key()) into one
	// solve whose outcome is fanned out to every duplicate slot, marked
	// with BatchOutcome.Dedup.
	Dedup bool
}

// SolveBatch answers queries over one shared Prepared with a bounded
// worker pool — SolveBatchPolicy with a bare policy (no per-query
// limits). Panic isolation still applies: a solver panic
// surfaces as that query's *SolveError.
func SolveBatch(ctx context.Context, s Solver, prep *Prepared, queries []Query, workers int) []BatchOutcome {
	return SolveBatchPolicy(ctx, SolvePolicy{Solver: s}, prep, queries, workers)
}

// SolveBatchPolicy answers queries over one shared Prepared with a bounded
// worker pool, each query guarded by the policy: panics are isolated into
// per-query *SolveError values, and per-query timeouts and work budgets
// apply to each query separately. Results are
// returned in query order regardless of worker count and scheduling;
// errors are isolated per query. When ctx is canceled mid-batch, queries
// not yet started report ctx.Err() (e.g. context.Canceled) while in-flight
// solves abort at their next amortized check. workers ≤ 0 uses GOMAXPROCS.
func SolveBatchPolicy(ctx context.Context, pol SolvePolicy, prep *Prepared, queries []Query, workers int) []BatchOutcome {
	return SolveBatchOptions(ctx, pol, prep, queries, BatchOptions{Workers: workers})
}

// SolveBatchOptions is SolveBatchPolicy with batch-level optimizations
// under explicit control: exact-duplicate collapse (opt.Dedup), batch-
// scoped cross-query sharing with clustered dispatch (opt.Share), and a
// per-worker scratch arena that makes repeated solves on one worker
// allocation-free in their plane phases. Results are returned in input
// order regardless of worker count, clustering or deduplication, and are
// byte-identical to what independent per-query solves would produce.
func SolveBatchOptions(ctx context.Context, pol SolvePolicy, prep *Prepared, queries []Query, opt BatchOptions) []BatchOutcome {
	out := make([]BatchOutcome, len(queries))
	if len(queries) == 0 {
		return out
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// One PointKey per query, computed once and reused by deduplication,
	// sharing-group assignment and clustering.
	var keys []string
	if (opt.Dedup || opt.Share) && len(queries) > 1 {
		keys = make([]string, len(queries))
		for i, q := range queries {
			keys[i] = q.PointKey()
		}
	}

	// Deduplicate: one representative slot per distinct query identity; the
	// other slots receive a copy of its outcome after the solves.
	order := make([]int, 0, len(queries))
	var dupOf []int
	if opt.Dedup && len(queries) > 1 {
		type qID struct {
			point string
			k     int
			eps   uint64
		}
		dupOf = make([]int, len(queries))
		seen := make(map[qID]int, len(queries))
		for i, q := range queries {
			id := qID{point: keys[i], k: q.K, eps: math.Float64bits(q.Eps)}
			if j, ok := seen[id]; ok {
				dupOf[i] = j
			} else {
				seen[id] = i
				dupOf[i] = -1
				order = append(order, i)
			}
		}
	} else {
		for i := range queries {
			order = append(order, i)
		}
	}

	solvePrep := prep
	var view *shareView
	if opt.Share && len(queries) > 1 {
		solvePrep, view = prep.shareFor(queries, keys)
		clusterOrder(order, queries, keys)
	}
	if workers > len(order) {
		workers = len(order)
	}

	solveOne := func(sctx context.Context, a *Arena, i int) {
		if err := sctx.Err(); err != nil {
			// Same vocabulary as an in-flight abort: ErrDeadline for a
			// passed deadline, context.Canceled for cancellation.
			out[i].Err = MapContextErr(err)
			return
		}
		if view != nil {
			a.group = view.groupOf[i]
		}
		start := time.Now()
		out[i].Region, out[i].Stats, out[i].Err = pol.Solve(sctx, solvePrep, queries[i], i)
		out[i].Elapsed = time.Since(start)
	}
	if workers == 1 {
		a := getArena()
		a.share = view
		actx := contextWithArena(ctx, a)
		for _, i := range order {
			solveOne(actx, a, i)
		}
		putArena(a)
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := getArena()
				defer putArena(a)
				a.share = view
				actx := contextWithArena(ctx, a)
				for i := range idx {
					solveOne(actx, a, i)
				}
			}()
		}
		for _, i := range order {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	if dupOf != nil {
		for i, j := range dupOf {
			if j >= 0 {
				out[i] = out[j]
				out[i].Elapsed = 0
				out[i].Dedup = true
			}
		}
	}
	return out
}

package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"time"

	"rrq/internal/faultinject"
	"rrq/internal/obs"
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
// The checker doubles as the per-solve metrics carrier: it captures the
// registry riding on the context once at construction, so the solver hot
// path pays a single nil-check per phase boundary (Phase) when metrics are
// off.
type CtxChecker struct {
	ctx    context.Context
	mask   uint32
	n      uint32
	err    error
	reg    *obs.Registry
	meter  *workMeter
	faults *faultinject.Injector
	fkey   []float64
}

// NewCtxChecker builds a checker that samples ctx every mask+1 Stop calls
// (mask must be 2^m − 1). A context that can never be canceled
// (ctx.Done() == nil, e.g. context.Background()) disables cancellation
// checking; an already-expired context trips the checker immediately, so
// solvers fail fast before doing any work. Any metrics registry, work
// budget (ContextWithWorkBudget) or fault injector carried by ctx is
// captured once here, so the hot path pays one nil-check per facility.
func NewCtxChecker(ctx context.Context, mask uint32) *CtxChecker {
	c := new(CtxChecker)
	c.reset(ctx, mask)
	return c
}

// reset makes c the checker NewCtxChecker(ctx, mask) returns, so a solve
// can keep its checker in its Arena.
func (c *CtxChecker) reset(ctx context.Context, mask uint32) {
	*c = CtxChecker{
		reg:    obs.RegistryFrom(ctx),
		meter:  meterFrom(ctx),
		faults: faultinject.From(ctx),
		mask:   mask,
	}
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
		c.err = ctx.Err()
	}
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
// directly.
func (c *CtxChecker) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

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
// dangling open phases in the timers.
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
// on each call: the dimension check and, when enabled, the k-skyband
// prefilter, whose bands are memoized from one dominator-count vector so
// queries of any rank share it. A Prepared is safe for concurrent use.
//
// A solve outside a batch builds its planes into its own arena and keeps
// none: the result cache is what reuses work across served requests. A
// batch solves on a view of the Prepared that adds a plane store, which
// shares the planes of each (point, ε) several of the batch's queries ask
// for and dies with the batch.
type Prepared struct {
	dim   int
	bands *bandSet
	tally *PlaneCounters // nil: uncounted
	store *planeStore    // a batch view's; nil on every other Prepared
}

// Prepare returns the reusable preprocessing handle for pts. The points
// are trusted: they must already pass CheckPoints (every rrq.Dataset does),
// and only the O(1) CheckDim runs here. When skybandPrefilter is set,
// PointsFor(k) serves the cached k-skyband instead of the full point set —
// sound for reverse regret queries because a point dominated by ≥ k others
// can only count against q on preferences where its dominators already do.
func Prepare(pts []vec.Vec, dim int, skybandPrefilter bool) (*Prepared, error) {
	if err := CheckDim(dim); err != nil {
		return nil, err
	}
	return &Prepared{dim: dim, bands: newBandSet(pts, skybandPrefilter)}, nil
}

// PrepareCounted wraps an index snapshot's points as a prefiltered Prepared
// and, like Prepare, trusts them. dom holds each point's exact dominator
// count, so every k-band is one comparison per point and never recomputed,
// and every k above the largest count maps to one band. Every plane set a
// solve on it draws — one miss per served solve, a batch's hits and misses
// — is tallied in tally and reported to the context's registry as
// index.planes.hit / .miss.
func PrepareCounted(pts []vec.Vec, dim int, dom []int, tally *PlaneCounters) *Prepared {
	bands := newBandSet(pts, true)
	bands.counts, bands.countsK = dom, math.MaxInt
	bands.top = 1
	for _, c := range dom {
		bands.top = max(bands.top, c+1)
	}
	return &Prepared{dim: dim, bands: bands, tally: tally}
}

// Dim returns the validated dataset dimension.
func (p *Prepared) Dim() int { return p.dim }

// Len returns the full dataset size.
func (p *Prepared) Len() int { return len(p.bands.all.pts) }

// Points returns the full validated point set (not copied; callers must
// not mutate).
func (p *Prepared) Points() []vec.Vec { return p.bands.all.pts }

// PointsFor returns the point set a solver should run on for rank k: the
// memoized k-skyband when prefiltering is enabled, the full set otherwise.
func (p *Prepared) PointsFor(k int) []vec.Vec {
	return p.bands.get(p.bands.rank(k)).pts
}

// BandViews returns the number of memoized k-bands.
func (p *Prepared) BandViews() int {
	p.bands.mu.Lock()
	defer p.bands.mu.Unlock()
	n := 0
	for _, b := range p.bands.memo {
		if b != nil {
			n++
		}
	}
	return n
}

// Solver is the one way to run an algorithm: Solve answers q over a
// Prepared, cancellable via ctx (deadlines surface as ErrDeadline,
// cancellation as context.Canceled), fed from the Prepared's shared
// per-dataset preprocessing — its k-bands and, in a batch, the batch's plane
// store — and reporting common work counters. Every Solve checks q with
// Prepared.Validate and trusts the points, which were checked once where
// they entered the process (CheckPoints). Implementations must be stateless
// or internally synchronized: SolveBatch calls Solve concurrently.
type Solver interface {
	Name() string
	Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error)
}

// Validate is the query gate of every Solver: intrinsic validity first
// (against the query's own dimension, so a malformed query point reports
// field "q"), then the match against the prepared dataset dimension (field
// "dim"). A failure is always a *QueryError.
func (p *Prepared) Validate(q Query) error {
	if err := q.Validate(q.Q.Dim()); err != nil {
		return err
	}
	return q.Validate(p.dim)
}

// planes returns q's classified plane set over the band its rank selects:
// served from the batch's plane store when q's key has a group there, built
// into a otherwise. A counted Prepared tallies the lookup and reports it to
// reg (see PlaneCounters.count).
func (p *Prepared) planes(q Query, a *Arena, reg *obs.Registry) PlaneSet {
	ps, hit := p.store.planes(p.PointsFor(q.K), q, a, reg)
	p.tally.count(hit, reg)
	return ps
}

// Planes is the plane source of a solver whose answer keeps the plane
// normals (A-PC, brute force, LP-CTA): q's classified plane set, drawn
// like every solver's, with any storage the serving needs in a fresh Arena
// the caller owns — never the pooled scratch of a solve. The headers are
// the caller's; the normals may be a batch's plane group's and are
// read-only. check carries the solve's metrics registry, which a counted
// Prepared reports the lookup to.
func (p *Prepared) Planes(q Query, check *CtxChecker) PlaneSet {
	return p.planes(q, &Arena{}, check.reg)
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

// SolveBatchPolicy answers queries over one shared Prepared with a bounded
// worker pool, each query guarded by the policy: panics are isolated into
// per-query *SolveError values, and per-query timeouts and work budgets
// apply to each query separately. When ctx is canceled mid-batch, queries
// not yet started report ctx.Err() (e.g. context.Canceled) while in-flight
// solves abort at their next amortized check. workers ≤ 0 uses GOMAXPROCS.
//
// The batch shares work across its queries: exact duplicates (equal
// Query.Key()) solve once and fan out to every slot, marked with
// BatchOutcome.Dedup; every (point, ε) group that several distinct queries
// share draws its planes from the batch's plane store, classified once at
// the group's largest k; the dispatch order clusters queries on shared
// state. Like every solve, each one draws its scratch from the arena pool.
// Results are returned in input order regardless of worker count,
// clustering or deduplication, and are byte-identical to independent
// per-query solves.
func SolveBatchPolicy(ctx context.Context, pol SolvePolicy, prep *Prepared, queries []Query, workers int) []BatchOutcome {
	out := make([]BatchOutcome, len(queries))
	if len(queries) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Deduplicate: one representative slot per distinct query identity; the
	// other slots receive a copy of its outcome after the solves.
	order := make([]int, 0, len(queries))
	var dupOf []int
	if len(queries) == 1 {
		order = append(order, 0)
	} else {
		// One PointKey per query, reused by deduplication, group reservation
		// and clustering.
		keys := make([]string, len(queries))
		for i, q := range queries {
			keys[i] = q.PointKey()
		}
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
		prep = prep.forBatch(queries, keys, order)
		clusterOrder(order, queries, keys)
	}
	if workers > len(order) {
		workers = len(order)
	}

	solveOne := func(i int) {
		if err := ctx.Err(); err != nil {
			// Same vocabulary as an in-flight abort: ErrDeadline for a
			// passed deadline, context.Canceled for cancellation.
			out[i].Err = MapContextErr(err)
			return
		}
		start := time.Now()
		out[i].Region, out[i].Stats, out[i].Err = pol.Solve(ctx, prep, queries[i], i)
		out[i].Elapsed = time.Since(start)
	}
	if workers == 1 {
		for _, i := range order {
			solveOne(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					solveOne(i)
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

// forBatch returns the Prepared a batch solves on — a view sharing p's
// bands and counters with a plane store of the batch's own — after
// reserving, at its largest band rank, every (point, ε) group that at least
// two of the distinct queries in order share, so each such group is
// classified once however its queries are ordered. A key only one query
// asks for gets no group; its solve builds its planes like a served one.
func (p *Prepared) forBatch(queries []Query, keys []string, order []int) *Prepared {
	bp := &Prepared{dim: p.dim, bands: p.bands, tally: p.tally, store: newPlaneStore(p.bands)}
	type groupID struct {
		point string
		eps   uint64
	}
	type span struct{ kmax, n int }
	spans := make(map[groupID]span)
	for _, i := range order {
		id := groupID{point: keys[i], eps: math.Float64bits(queries[i].Eps)}
		sp := spans[id]
		sp.kmax, sp.n = max(sp.kmax, queries[i].K), sp.n+1
		spans[id] = sp
	}
	// Reserve in query order (each group at its first query), so which
	// groups fit under the store's cap is deterministic.
	for _, i := range order {
		id := groupID{point: keys[i], eps: math.Float64bits(queries[i].Eps)}
		if sp, ok := spans[id]; ok {
			if sp.n >= 2 && sp.kmax >= 1 {
				bp.store.reserve(queries[i], bp.bands.rank(sp.kmax))
			}
			delete(spans, id)
		}
	}
	return bp
}

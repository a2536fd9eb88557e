// Package rrq is a Go implementation of the Reverse Regret Query (Wang,
// Wong, Jagadish, Xie): given a market of products with d numeric
// attributes and a query product q, find every linear preference (utility
// vector) under which q's k-regret ratio stays below a threshold ε — i.e.
// every prospective customer for whom q scores at (or near) the top of the
// market, even when it does not rank there.
//
// # Quick start
//
//	ds, _ := rrq.NewDataset([][]float64{{0.2, 0.92}, {0.7, 0.54}, {0.6, 0.3}})
//	q := rrq.Query{Q: rrq.Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
//	res, _ := rrq.SolveContext(context.Background(), ds, q)
//	share := res.Region.Measure(20000) // fraction of preference space won
//
// Three solvers from the paper are available: Sweeping (d = 2, linear
// time), E-PT (exact, any d) and A-PC (approximate, faster). The two
// competitors the paper benchmarks against, LP-CTA and PBA+, are included
// for comparison, as is the continuous reverse top-k operator.
package rrq

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// Point is one product: d attribute values, larger preferred, normalized to
// (0,1].
type Point []float64

// Vector is a utility vector: non-negative weights summing to one.
type Vector []float64

// Dataset is an immutable collection of products with a common dimension.
type Dataset struct {
	pts []vec.Vec
	dim int
}

// NewDataset copies points into a dataset. All points must share the same
// dimension d ≥ 2, and every attribute must be finite and strictly
// positive — the solver domain, checked here once by core.CheckPoints, so
// every later entry point trusts the dataset. A failure is a *DataError; a
// dimension below 2 reports Point −1. Raw data with zero or negative
// attributes goes through NewNormalizedDataset instead.
func NewDataset(points [][]float64) (*Dataset, error) {
	if len(points) == 0 {
		return nil, errors.New("rrq: empty dataset")
	}
	d := len(points[0])
	pts := make([]vec.Vec, len(points))
	for i, p := range points {
		pts[i] = vec.Vec(p).Clone()
	}
	if err := core.CheckPoints(pts, d); err != nil {
		return nil, err
	}
	return &Dataset{pts: pts, dim: d}, nil
}

// NewNormalizedDataset builds a dataset from raw rows: every attribute is
// rescaled onto (0,1], the domain the paper assumes, with the per-column
// minimum mapped to a small positive value and the maximum to 1. Rows must
// share one dimension d ≥ 2 and hold finite values, checked before any
// rescaling; the rescaled points then pass the same check as NewDataset's.
// A failure is a *DataError. The rows are copied, never rescaled in place.
func NewNormalizedDataset(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 {
		return nil, errors.New("rrq: empty dataset")
	}
	d := len(rows[0])
	pts := make([]vec.Vec, len(rows))
	for i, r := range rows {
		if err := core.CheckRow(i, r, d); err != nil {
			return nil, err
		}
		pts[i] = vec.Vec(r).Clone()
	}
	dataset.Normalize(pts)
	if err := core.CheckPoints(pts, d); err != nil {
		return nil, err
	}
	return &Dataset{pts: pts, dim: d}, nil
}

// Len returns the number of products.
func (d *Dataset) Len() int { return len(d.pts) }

// Dim returns the number of attributes.
func (d *Dataset) Dim() int { return d.dim }

// PointAt returns a copy of the i-th product.
func (d *Dataset) PointAt(i int) Point { return Point(d.pts[i].Clone()) }

// KSkyband returns the sub-dataset of points dominated by fewer than k
// others — the standard preprocessing applied before reverse queries, since
// points outside the k-skyband can never rank within any top-k.
//
// For k ≤ 0 the result is the empty dataset (with the dimension preserved):
// no point is dominated by fewer than zero others, so the 0-skyband is empty
// by definition rather than an error.
func (d *Dataset) KSkyband(k int) *Dataset {
	if k <= 0 {
		return &Dataset{pts: nil, dim: d.dim}
	}
	idx := skyband.KSkyband(d.pts, k)
	return &Dataset{pts: skyband.Select(d.pts, idx), dim: d.dim}
}

// points returns the internal representation (not copied; callers must not
// mutate).
func (d *Dataset) points() []vec.Vec { return d.pts }

// Query is one reverse regret query.
type Query struct {
	Q       Point   // the query product
	K       int     // rank relaxation, k ≥ 1
	Epsilon float64 // regret threshold ε ∈ [0,1)
}

func (q Query) toCore() core.Query {
	return core.Query{Q: vec.Vec(q.Q), K: q.K, Eps: q.Epsilon}
}

// Key returns the canonical comparable form of the query: a compact string
// that is equal exactly when two queries have the same point, K and
// Epsilon (bit-for-bit on the floats). It is the key the result cache,
// per-tenant accounting and request deduplication agree on — use it
// anywhere a query is hashed or grouped instead of re-deriving an ad-hoc
// encoding. The key is stable within a process but not a display format;
// use String for logs.
func (q Query) Key() string { return q.toCore().Key() }

// String formats the query for logs and error messages, e.g.
// "q=(0.4,0.7) k=2 eps=0.1".
func (q Query) String() string { return q.toCore().String() }

// QueryError is the typed validation error returned by every entry point
// for a malformed query; match it with errors.As. Field names the
// offending parameter: "q", "k", "epsilon" or "dim".
type QueryError = core.QueryError

// Validate checks the query's intrinsic parameters — Q finite with
// dimension ≥ 2, K ≥ 1 and Epsilon ∈ [0,1) — without a dataset. The same
// validation (plus the query/dataset dimension match) runs inside every
// entry point: SolveContext, Prepare and SolveBatch, Index solving and
// PBAIndex queries. A failure is always a *QueryError.
func (q Query) Validate() error {
	return q.toCore().Validate(len(q.Q))
}

// Algorithm selects the solver used by SolveContext, Prepare, SolveBatch
// and Index solving.
type Algorithm int

const (
	// Auto picks Sweeping for d = 2 and EPT otherwise.
	Auto Algorithm = iota
	// SweepingAlgo is the linear-time 2-d sweep (paper §4).
	SweepingAlgo
	// EPTAlgo is the exact partition tree (paper §5.1).
	EPTAlgo
	// APCAlgo is the approximate progressive construction (paper §5.2).
	APCAlgo
	// LPCTAAlgo is the adapted LP-CTA baseline (Tang et al. 2017).
	LPCTAAlgo
	// BruteForceAlgo is the exact reference solver (tests and tiny inputs).
	BruteForceAlgo
)

func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "Auto"
	case SweepingAlgo:
		return "Sweeping"
	case EPTAlgo:
		return "E-PT"
	case APCAlgo:
		return "A-PC"
	case LPCTAAlgo:
		return "LP-CTA"
	case BruteForceAlgo:
		return "BruteForce"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm maps a command-line algorithm name to the value, case
// insensitively: auto, sweeping (or sweep), ept, apc, lpcta, brute.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(s) {
	case "auto":
		return Auto, nil
	case "sweeping", "sweep":
		return SweepingAlgo, nil
	case "ept":
		return EPTAlgo, nil
	case "apc":
		return APCAlgo, nil
	case "lpcta":
		return LPCTAAlgo, nil
	case "brute":
		return BruteForceAlgo, nil
	default:
		return 0, fmt.Errorf("rrq: unknown algorithm %q (want auto|sweeping|ept|apc|lpcta|brute)", s)
	}
}

// Stats reports the work counters of a solve: planes built and inserted,
// tree nodes, LP solves, samples, and the piece count of the answer. Each
// solver fills the counters that apply to it.
type Stats = core.Stats

// Result is the full outcome of one solve: the qualified region, the
// solver's work counters and the wall-clock time spent.
//
// Cache reports how the result cache participated (CacheBypass when no
// cache is configured). CacheSource is set only on an anytime answer that
// was warm-started from a cached neighbor: it names the cached query whose
// region seeded the construction (see Index.SolveContext).
//
// Tier classifies the contract the answer was produced under; for
// TierAnytime answers Accuracy carries the enforced accuracy contract
// (Lemma 5.10 ρ bound for the samples actually consumed), nil otherwise.
type Result struct {
	Region      *Region
	Stats       Stats
	Elapsed     time.Duration
	Cache       CacheStatus
	CacheSource *Query
	Tier        SolverTier
	Accuracy    *Accuracy
}

// SolverTier classifies the serving contract of a Result.
type SolverTier int

const (
	// TierExact: the region equals the true answer (exact solvers and
	// exact cache hits).
	TierExact SolverTier = iota
	// TierApprox: the region is A-PC's one-sided approximation — a sound
	// inner region with no per-run accuracy report (WithAlgorithm(APCAlgo)).
	TierApprox
	// TierAnytime: the region is a cut of the anytime A-PC construction
	// (WithAnytime / WithAnytimeSamples, or a server-side degrade); a sound
	// inner region with Result.Accuracy reporting the Lemma 5.10 bound for
	// the work actually done.
	TierAnytime
)

func (t SolverTier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierApprox:
		return "approx"
	case TierAnytime:
		return "anytime"
	default:
		return fmt.Sprintf("SolverTier(%d)", int(t))
	}
}

// Accuracy is the enforced accuracy contract attached to a TierAnytime
// Result: the samples the construction actually consumed, the Lemma 5.10
// volume-ratio bound ρ they support at confidence 1−Delta, whether a budget
// cut the run, and an independently seeded estimate of the region's volume.
type Accuracy = core.Accuracy

// CacheStatus reports the result cache's involvement in one solve.
type CacheStatus int

const (
	// CacheBypass: no result cache configured, or the serving path cannot
	// cache (approximate answers).
	CacheBypass CacheStatus = iota
	// CacheMiss: the cache was consulted, missed, and stored the fresh
	// answer.
	CacheMiss
	// CacheHit: the answer was served from the cache, byte-identical to a
	// fresh solve on the same snapshot.
	CacheHit
)

func (s CacheStatus) String() string {
	switch s {
	case CacheBypass:
		return "bypass"
	case CacheMiss:
		return "miss"
	case CacheHit:
		return "hit"
	default:
		return fmt.Sprintf("CacheStatus(%d)", int(s))
	}
}

// Registry is a process-wide metrics registry: named counters, gauges and
// phase timers, exposable as expvar-compatible text (Text / WriteText).
// Attach one to solves with WithMetrics.
type Registry = obs.Registry

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// TimerSnapshot is a point-in-time copy of one phase timer's histogram.
type TimerSnapshot = obs.TimerSnapshot

// Option configures SolveContext, SolveBatch, Prepare and Index solving.
type Option func(*config)

type config struct {
	algo         Algorithm
	samples      int
	seed         int64
	workers      int
	intra        int
	skyband      bool
	metrics      *obs.Registry
	queryTimeout time.Duration
	workBudget   int64
	cacheSize    int

	anytimeBudget  time.Duration
	anytimeSamples int
}

// newConfig applies opts to the zero configuration.
func newConfig(opts []Option) config { return config{}.with(opts) }

// with returns c with opts applied on top — an Index's defaults merged
// with per-call options.
func (c config) with(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// anytimeActive reports whether any anytime knob selects the anytime tier.
func (c *config) anytimeActive() bool {
	return c.anytimeBudget > 0 || c.anytimeSamples > 0
}

// obsContext attaches the configured metrics registry to ctx so the solver
// hot paths can pick it up (one nil-check when off).
func (c *config) obsContext(ctx context.Context) context.Context {
	return obs.ContextWithRegistry(ctx, c.metrics)
}

// WithAlgorithm forces a specific solver.
func WithAlgorithm(a Algorithm) Option { return func(c *config) { c.algo = a } }

// WithSamples sets the A-PC sample count N (default 10·(d−1), §6.3).
func WithSamples(n int) Option { return func(c *config) { c.samples = n } }

// WithSeed seeds the randomized parts of A-PC.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithWorkers bounds the worker pool of SolveBatch (and Prepared.SolveBatch).
// n ≤ 0 (the default) uses GOMAXPROCS. This is inter-query parallelism —
// queries of a batch run concurrently; see WithIntraQueryWorkers for the
// orthogonal knob inside one A-PC solve.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithIntraQueryWorkers parallelizes A-PC's sample classification inside a
// single solve: a run that cannot be cut classifies its utility samples
// with n workers. Every other solver, and the anytime tier's streamed A-PC
// runs, stay serial. n ≤ 1 (the default) keeps every solve serial. The
// answer is byte-for-byte identical for every n — samples are drawn up
// front and merged in sample order — so the knob trades cores for latency
// only.
//
// Use WithWorkers to increase batch throughput when there are many queries,
// WithIntraQueryWorkers to cut the latency of few large A-PC queries;
// combining both multiplies goroutines (workers × intra), so keep the
// product near GOMAXPROCS.
func WithIntraQueryWorkers(n int) Option { return func(c *config) { c.intra = n } }

// WithSkybandPrefilter enables the k-skyband prefilter: solvers run on the
// cached k-skyband of the dataset instead of the full point set. The
// qualified region is unchanged (a point dominated by ≥ k others only counts
// against q on preferences where its dominators already do), but its convex
// decomposition — and therefore its JSON encoding — may differ, which is why
// the prefilter is off by default.
func WithSkybandPrefilter(on bool) Option { return func(c *config) { c.skyband = on } }

// WithQueryTimeout bounds the wall-clock time of each individual solve.
// Unlike a context deadline — which covers a whole SolveBatch call — the
// timeout restarts for every query, so one pathological query cannot
// starve the rest of a batch. A solve that exceeds its timeout fails with
// ErrDeadline; to answer such a query approximately instead, solve it again
// with WithAnytime (rrqd does this for you under -anytime). d ≤ 0 (the
// default) disables the per-query timeout.
func WithQueryTimeout(d time.Duration) Option {
	return func(c *config) { c.queryTimeout = d }
}

// WithWorkBudget bounds the work of each individual solve in the solver's
// own units — partition-tree node visits, LP relation tests, sample
// classifications, and E-PT's plane-reduction steps (one unit per 32
// dominance tests): the same units the amortized cancellation checks count.
// Unlike a timeout, the bound is deterministic: a query either fits its
// budget or fails with a *BudgetError on every run, regardless of machine
// load. The budget is shared across a solve's intra-query workers (A-PC's
// sample classification) and checked on the amortized cadence, so small
// overruns (one check interval) are possible. As with WithQueryTimeout, WithAnytime is the approximate
// retry for a query that does not fit. n ≤ 0 (the default) disables the
// budget.
func WithWorkBudget(n int64) Option {
	return func(c *config) { c.workBudget = n }
}

// WithResultCache gives an Index a bounded LRU result cache of n entries
// (n ≤ 0 disables it, the default). Cached entries are keyed on the
// snapshot epoch, the serving path and Query.Key, so a repeat of an exact
// query on an unchanged index is answered without solving — byte-identical
// to the fresh answer, because the cache stores the fresh answer.
// Mutations invalidate for free: Insert/Delete publish a new epoch whose
// keys never match the old generation (which is pruned eagerly).
// Approximate (A-PC) answers are never cached. With WithMetrics, traffic
// shows as "cache.hit" / "cache.miss", plus "cache.warm_start" for anytime
// solves seeded from a cached neighbor. The option only affects Index
// solving; SolveContext and Prepare over a plain Dataset ignore it.
func WithResultCache(n int) Option { return func(c *config) { c.cacheSize = n } }

// WithCacheBounds does nothing; a cache miss is always solved exactly.
//
// Deprecated: cached neighbors no longer answer queries. They only
// warm-start the anytime tier, which needs just WithResultCache.
func WithCacheBounds(bool) Option { return func(*config) {} }

// WithMetrics accumulates phase timings and solve counters into reg: each
// solver phase (e.g. "phase.ept.insert") gets a histogram timer, and the
// serving layer maintains "rrq.solves" / "rrq.solve_errors" counters. The
// registry is safe for concurrent use and may be shared across datasets and
// goroutines; expose it with Registry.Text or via expvar. A nil reg
// disables metrics.
func WithMetrics(reg *Registry) Option { return func(c *config) { c.metrics = reg } }

// WithAnytime selects the anytime serving tier with a wall-clock budget:
// the solve runs the progressive A-PC construction and cuts at the first
// partition boundary past the deadline, returning whatever
// sound inner region has accumulated by then (possibly empty) with
// Result.Accuracy reporting the Lemma 5.10 ρ bound for the samples
// actually consumed. Cuts happen only at partition boundaries, so for a
// fixed seed the region is monotone in the budget: a longer budget's
// region contains a shorter one's.
//
// The anytime tier replaces the configured algorithm and the per-query
// limits (WithQueryTimeout, WithWorkBudget) — it is the retry for a solve
// that failed on them, and its budget bounds the run — but keeps the
// guarded solve path: a panic comes back as a *SolveError, and batches use
// the worker pool and duplicate collapse. The result cache still
// participates: anytime answers are stored as inner-bound entries, and a
// cached inner bound on the same query point seeds the construction
// (warm start), so repeated anytime queries ratchet toward the full
// answer. budget ≤ 0 disables the tier.
func WithAnytime(budget time.Duration) Option {
	return func(c *config) { c.anytimeBudget = budget }
}

// WithAnytimeSamples selects the anytime tier with a deterministic work
// budget: the construction cuts after consuming n utility samples instead
// of at a wall-clock deadline, making anytime runs reproducible
// (benchmarks, differential tests). Combine with WithAnytime to also
// bound wall-clock time — whichever budget exhausts first cuts the run.
// n ≤ 0 disables the sample budget.
func WithAnytimeSamples(n int) Option {
	return func(c *config) { c.anytimeSamples = n }
}

// resolvedAlgo maps Auto to the concrete solver choice for the dimension —
// the name the result cache keys serving paths by.
func resolvedAlgo(cfg config, dim int) Algorithm {
	if cfg.algo == Auto {
		if dim == 2 {
			return SweepingAlgo
		}
		return EPTAlgo
	}
	return cfg.algo
}

// solverFor maps the configured algorithm to its core.Solver, refusing an
// algorithm that cannot answer the dimension.
func solverFor(cfg config, dim int) (core.Solver, error) {
	switch algo := resolvedAlgo(cfg, dim); algo {
	case SweepingAlgo:
		if dim != 2 {
			return nil, fmt.Errorf("rrq: %v requires d = 2, got %d", algo, dim)
		}
		return core.SweepingSolver{}, nil
	case EPTAlgo:
		return core.EPTSolver{}, nil
	case APCAlgo:
		return core.APCSolver{Opt: core.APCOptions{Samples: cfg.samples, Seed: cfg.seed, Workers: cfg.intra}}, nil
	case LPCTAAlgo:
		return baseline.LPCTASolver{}, nil
	case BruteForceAlgo:
		return core.BruteForceSolver{MaxPlanes: 64}, nil
	default:
		return nil, fmt.Errorf("rrq: unknown algorithm %v", algo)
	}
}

// policyFor assembles the core serving policy: the configured solver plus
// the per-query limits. On the anytime tier the solver is the cut A-PC run
// and the limits are left off: the tier is the retry for a solve that
// failed on them, and its cut budgets bound the run instead. A configured
// solver that cannot answer the dimension is an error on either tier.
func policyFor(cfg config, dim int) (core.SolvePolicy, error) {
	s, err := solverFor(cfg, dim)
	if err != nil {
		return core.SolvePolicy{}, err
	}
	if cfg.anytimeActive() {
		return core.SolvePolicy{Solver: core.APCSolver{Opt: anytimeOptions(cfg, nil)}}, nil
	}
	return core.SolvePolicy{
		Solver:       s,
		QueryTimeout: cfg.queryTimeout,
		WorkBudget:   cfg.workBudget,
	}, nil
}

// SolveContext answers the reverse regret query over the dataset under a
// context and returns the full Result: region, work counters, elapsed time
// and serving tier. A context deadline aborts the solve with ErrDeadline,
// cancellation with ctx.Err(); both are observed with an amortized check
// inside the solver hot loops, so aborts take effect within a bounded
// amount of work. WithMetrics attaches phase timers and counters; per-solve
// work is reported in Result.Stats.
func SolveContext(ctx context.Context, d *Dataset, q Query, opts ...Option) (Result, error) {
	p, err := Prepare(d, opts...)
	if err != nil {
		return Result{}, err
	}
	return p.Solve(ctx, q)
}

// ErrDeadline is returned when a solve exceeds its context deadline or
// per-query timeout (WithQueryTimeout).
var ErrDeadline = core.ErrDeadline

// DataError is the typed validation error for a malformed dataset point —
// NaN/Inf or non-positive attributes, or a dimension mismatch; match it
// with errors.As. Point is the offending point's index, Attr the offending
// attribute (−1 for a dimension mismatch). A dataset dimension below 2
// reports Point and Attr −1, from the dataset constructors and from
// Prepare, BuildIndex and BuildPBAIndex alike.
type DataError = core.DataError

// SolveError is the typed error for a panic recovered inside a solver or
// one of its worker goroutines; match it with errors.As. The panic is
// isolated to its query — in a batch, the other queries are unaffected —
// and the error carries the solver name, the query's batch position
// (QueryIndex, −1 standalone), the panic value and the goroutine stack.
type SolveError = core.SolveError

// BudgetError is the typed error for a solve that exceeded its work budget
// (WithWorkBudget); match it with errors.As.
type BudgetError = core.BudgetError

// NumericalError is the typed error for a numerical failure inside a
// solver — an LP that did not reach optimality, or degenerate geometry.
type NumericalError = core.NumericalError

// ReverseTopK answers the continuous reverse top-k query: the region of
// preference space on which q ranks within the top k. It equals the
// reverse regret query at ε = 0.
func ReverseTopK(d *Dataset, q Point, k int) (*Region, error) {
	res, err := SolveContext(context.Background(), d, Query{Q: q, K: k, Epsilon: 0}, WithAlgorithm(EPTAlgo))
	if err != nil {
		return nil, err
	}
	return res.Region, nil
}

// RegretRatio computes the k-regret ratio of q under utility vector u
// (Definition 3.2).
func RegretRatio(d *Dataset, q Point, k int, u Vector) float64 {
	return core.RegretRatio(d.points(), core.Query{Q: vec.Vec(q), K: k, Eps: 0}, vec.Vec(u))
}

// Region is the answer to a query: the set of qualified utility vectors,
// represented as convex partitions of the preference simplex.
type Region struct {
	inner *core.Region
}

// IsEmpty reports whether no preference qualifies.
func (r *Region) IsEmpty() bool { return r.inner.Empty() }

// NumPartitions returns how many convex pieces the region holds.
func (r *Region) NumPartitions() int { return r.inner.NumPieces() }

// Contains reports whether the utility vector u qualifies. u must be a
// d-dimensional non-negative vector summing to 1.
func (r *Region) Contains(u Vector) bool { return r.inner.Contains(vec.Vec(u)) }

// Measure returns the fraction of the preference space that qualifies —
// the "market share" of the query product at regret level ε. The result is
// exact, and samples is ignored, for every 2-d region and for 3-d regions
// of disjoint pieces: the answers of E-PT, LP-CTA, PBA+ and brute force.
// Otherwise (A-PC and anytime answers at d ≥ 3, every region at d ≥ 4) it
// is a deterministic Monte-Carlo estimate over samples points.
func (r *Region) Measure(samples int) float64 {
	return r.MeasureWithSeed(1, samples)
}

// MeasureWithSeed is Measure with a caller-supplied seed for the
// Monte-Carlo sampler (unused where Measure is exact). Equal seeds and
// sample counts return the identical estimate, making differential and
// replayed runs comparable; Measure is MeasureWithSeed(1, samples).
func (r *Region) MeasureWithSeed(seed int64, samples int) float64 {
	return r.inner.MeasureWithSeed(seed, samples)
}

// Sample returns one qualified utility vector, or nil when the region is
// empty.
func (r *Region) Sample(seed int64) Vector {
	u := r.inner.SamplePoint(rand.New(rand.NewSource(seed)))
	return Vector(u)
}

// Intervals2D returns the region as intervals [lo,hi] of the sweep
// parameter t, where the preference is (t, 1−t). Only valid when d = 2.
func (r *Region) Intervals2D() [][2]float64 { return r.inner.Intervals() }

// MarshalJSON encodes the region in a self-contained form: intervals for
// 2-d sweep answers, half-space constraint sets (plus vertices) otherwise.
func (r *Region) MarshalJSON() ([]byte, error) { return r.inner.MarshalJSON() }

// AppendJSON appends the MarshalJSON encoding of the region to b and
// returns the extended buffer, allocating only when b runs out of room —
// the form for writing many answers through one reused buffer. On error
// (a NaN or infinite coordinate, reported as *json.UnsupportedValueError)
// b is returned unextended.
func (r *Region) AppendJSON(b []byte) ([]byte, error) { return r.inner.AppendJSON(b) }

// PBAIndex is the adapted PBA+ baseline: an index built once over a
// dataset, answering reverse regret queries for any k up to its kmax.
// Included for benchmark parity with the paper; its preprocessing is
// intentionally expensive.
type PBAIndex struct {
	inner *baseline.PBAIndex
}

// BuildPBAIndex preprocesses the dataset for queries with K ≤ kmax.
// maxNodes bounds index size (0 = default); ErrPBABudget is returned when
// the budget is exceeded.
func BuildPBAIndex(d *Dataset, kmax, maxNodes int) (*PBAIndex, error) {
	ix, err := baseline.BuildPBA(d.points(), kmax, maxNodes)
	if err != nil {
		return nil, err
	}
	return &PBAIndex{inner: ix}, nil
}

// ErrPBABudget signals that PBA+ preprocessing exceeded its node budget.
var ErrPBABudget = baseline.ErrPBABudget

// QueryContext answers a reverse regret query with the prebuilt index under
// a context: a deadline aborts the search with ErrDeadline, cancellation
// with ctx.Err(), both observed with an amortized check per visited node.
// WithMetrics attaches per-query phase timers and the pba.* counters;
// other options are ignored (the index fixes the algorithm).
func (ix *PBAIndex) QueryContext(ctx context.Context, q Query, opts ...Option) (*Region, error) {
	cfg := newConfig(opts)
	r, err := ix.inner.QueryContext(cfg.obsContext(ctx), q.toCore())
	if err != nil {
		return nil, err
	}
	return &Region{inner: r}, nil
}

// DistType selects a synthetic data distribution.
type DistType = dataset.Type

// Synthetic distribution re-exports.
const (
	Independent    = dataset.Independent
	Correlated     = dataset.Correlated
	Anticorrelated = dataset.Anticorrelated
)

// SyntheticDataset generates n points of dimension d from one of the three
// classical distributions, normalized to (0,1] and fully determined by the
// seed.
func SyntheticDataset(t DistType, n, d int, seed int64) *Dataset {
	return &Dataset{pts: dataset.Generate(t, n, d, seed), dim: d}
}

// RealDataset returns the seeded stand-in for one of the paper's real
// datasets: "Island", "Weather", "Car" or "NBA" (see DESIGN.md for the
// substitution rationale). maxN > 0 caps the size.
func RealDataset(name string, maxN int) (*Dataset, error) {
	pts, err := dataset.Real(dataset.RealName(name), maxN)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("rrq: empty real dataset %q", name)
	}
	return &Dataset{pts: pts, dim: pts[0].Dim()}, nil
}

// RandomQuery draws a query product for experiments: a random dataset point
// perturbed slightly, as in the paper's protocol. It returns nil on an
// empty dataset (e.g. the k ≤ 0 skyband).
func (d *Dataset) RandomQuery(seed int64) Point {
	if len(d.pts) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	return Point(dataset.RandQuery(rng, d.pts))
}

// ShareProfile is the market-share curve of a query product: Share(ε) is
// the fraction of the preference space on which the product is a
// (k,ε)-regret point, for every ε at once. It is built from one sampling
// pass (the per-preference minimal qualifying threshold ε* is computed
// directly), which is far cheaper than solving one reverse regret query per
// ε when sweeping tolerances during product design.
type ShareProfile struct {
	inner *core.ShareProfile
}

// NewShareProfile samples the preference space (deterministically from
// seed) and returns the share curve for query product q at rank k.
// samples ≤ 0 uses a default of 2000.
func NewShareProfile(d *Dataset, q Point, k, samples int, seed int64) (*ShareProfile, error) {
	sp, err := core.NewShareProfile(d.points(),
		core.Query{Q: vec.Vec(q), K: k, Eps: 0},
		samples, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	return &ShareProfile{inner: sp}, nil
}

// Share returns the market share at threshold eps.
func (sp *ShareProfile) Share(eps float64) float64 { return sp.inner.Share(eps) }

// EpsForShare returns the smallest threshold reaching the target share.
func (sp *ShareProfile) EpsForShare(target float64) float64 { return sp.inner.EpsForShare(target) }

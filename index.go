package rrq

// Persistent index serving layer: the per-query preprocessing (k-skyband
// prefilter, plane classification) promoted into a first-class,
// snapshot-versioned artifact. An Index is built once and then serves any
// number of queries from immutable snapshots; Insert and Delete publish new
// epochs copy-on-write, so concurrent readers keep answering on the epoch
// they started with. Answers are byte-identical to a from-scratch solve
// with the skyband prefilter enabled — the index changes where the
// preprocessing lives, never what a query returns.

import (
	"context"
	"io"
	"time"

	"rrq/internal/cache"
	"rrq/internal/core"
	"rrq/internal/geom"
	"rrq/internal/index"
	"rrq/internal/vec"
)

// Index answers reverse regret queries from a persistent, version-stamped
// snapshot of the dataset. Compared with SolveContext — which recomputes
// the k-skyband and reclassifies every hyper-plane per call — an index
// snapshot holds both, maintained incrementally across Insert/Delete, and
// shares the classified plane sets of repeated queries.
// All methods are safe for concurrent use.
type Index struct {
	inner *index.Index
	cfg   config
	dim   int
	cache *cache.Cache   // nil without WithResultCache
	dur   *index.Durable // nil unless opened with OpenDurableIndex
}

// BuildIndex constructs the first snapshot (epoch 1) from the dataset,
// whose points were checked when it was built; a dimension below 2 is a
// *DataError. The options fix the default solving configuration —
// algorithm, resilience policy, result cache and observability — that
// SolveContext/SolveBatch inherit; per-call options override the defaults. With WithMetrics, the build maintains "index.builds" and
// the "index.epoch" gauge, times "phase.index.build", and every served
// query's plane-cache traffic shows as "index.planes.hit"/"index.planes.miss".
func BuildIndex(d *Dataset, opts ...Option) (*Index, error) {
	cfg := newConfig(opts)
	start := time.Now()
	inner, err := index.Build(d.points(), d.Dim())
	cfg.metrics.Timer("phase.index.build").Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	return newIndex(inner, nil, cfg)
}

// newIndex wraps a built, loaded or recovered inner index (dur is its
// durability layer, nil for an in-memory index) with the configuration's
// result cache, and counts the build in "index.builds" and "index.epoch".
// A configuration whose solver cannot answer the index's dimension is
// rejected here, not on every solve.
func newIndex(inner *index.Index, dur *index.Durable, cfg config) (*Index, error) {
	if _, err := policyFor(cfg, inner.Dim()); err != nil {
		return nil, err
	}
	ix := &Index{inner: inner, cfg: cfg, dim: inner.Dim(), dur: dur}
	if cfg.cacheSize > 0 {
		ix.cache = cache.New(cfg.cacheSize)
	}
	cfg.metrics.Counter("index.builds").Inc()
	cfg.metrics.Gauge("index.epoch").Set(float64(inner.Version()))
	return ix, nil
}

// Version returns the current epoch number: 1 after BuildIndex, incremented
// by every successful Insert or Delete.
func (ix *Index) Version() uint64 { return ix.inner.Version() }

// Len returns the current dataset size.
func (ix *Index) Len() int { return ix.inner.Len() }

// Dim returns the dataset dimension.
func (ix *Index) Dim() int { return ix.dim }

// CacheStats is a point-in-time view of an Index's result cache: occupancy
// (Entries/Capacity), exact-lookup traffic (Hits/Misses) and cached
// neighbors handed to the anytime tier as warm-start seeds (BoundHits).
type CacheStats = cache.Stats

// IndexStats is the read-only introspection view returned by Index.Stats:
// the current epoch and dataset shape plus the occupancy of the snapshot's
// derived structures. It exists so callers (and the rrqd stats endpoint)
// can inspect an index without wiring a metrics Registry.
type IndexStats struct {
	// Version is the current epoch, Points/Dim the dataset shape.
	Version uint64
	Points  int
	Dim     int
	// PlaneHits/PlaneMisses count plane-store traffic over the index's
	// lifetime (a hit is a plane set served without classification);
	// PlaneSets and SkybandViews are the current snapshot's (point, ε)
	// plane groups and memoized k-band views. A (point, ε) gets a plane
	// group only when the snapshot sees it a second time (or a batch asks
	// for it twice), so a stream of one-off queries keeps PlaneSets at 0.
	PlaneHits    int64
	PlaneMisses  int64
	PlaneSets    int
	SkybandViews int
	// Cache is the result cache's statistics, nil without WithResultCache.
	Cache *CacheStats
}

// Stats returns a consistent point-in-time view of the index: epoch, point
// count, plane-cache traffic and (when configured) result-cache statistics.
func (ix *Index) Stats() IndexStats {
	s := ix.inner.Stats()
	st := IndexStats{
		Version:      s.Version,
		Points:       s.Points,
		Dim:          s.Dim,
		PlaneHits:    s.PlaneHits,
		PlaneMisses:  s.PlaneMisses,
		PlaneSets:    s.PlaneSets,
		SkybandViews: s.SkybandViews,
	}
	if ix.cache != nil {
		cs := ix.cache.Stats()
		st.Cache = &cs
	}
	return st
}

// Insert adds a product and publishes a new epoch; queries already running
// keep serving the previous one. The dominator counts behind the skyband
// prefilter are maintained by delta (one scan), not recomputed. Returns the
// new version.
func (ix *Index) Insert(p Point) (uint64, error) {
	return ix.maintain("index.inserts", func() (uint64, error) {
		return ix.inner.Insert(vec.Vec(p))
	})
}

// Delete removes the i-th product (in insertion order) and publishes a new
// epoch. Deletions are as cheap as insertions — the delta-maintained counts
// retire the rebuild-on-delete the dynamic layer used to need. Returns the
// new version.
func (ix *Index) Delete(i int) (uint64, error) {
	return ix.maintain("index.deletes", func() (uint64, error) {
		return ix.inner.Delete(i)
	})
}

// maintain runs one mutation with the index's maintenance observability:
// the named counter, the "phase.index.maintain" timer and the
// "index.epoch" gauge.
func (ix *Index) maintain(counter string, op func() (uint64, error)) (uint64, error) {
	reg := ix.cfg.metrics
	start := time.Now()
	v, err := op()
	reg.Timer("phase.index.maintain").Observe(time.Since(start))
	if err != nil {
		return v, err
	}
	if ix.cache != nil {
		// Invalidation is free — the new epoch never matches old keys — but
		// pruning the dead generation now keeps it from occupying capacity.
		ix.cache.Prune(v)
	}
	reg.Counter(counter).Inc()
	reg.Gauge("index.epoch").Set(float64(v))
	return v, nil
}

// preparedOn binds one snapshot to a fully merged configuration, reusing
// the batch serving layer: the result answers with panic isolation and
// per-query timeouts/budgets exactly like a Prepare-d dataset, but with the
// snapshot's maintained prefilter and shared plane storage doing the
// preprocessing. Every solving path pins the snapshot it binds here, so
// later mutations do not affect it and a cached lookup's version is the
// version a miss is solved on.
func (ix *Index) preparedOn(snap *index.Snapshot, cfg config) (*Prepared, error) {
	pol, err := policyFor(cfg, ix.dim)
	if err != nil {
		return nil, err
	}
	return &Prepared{prep: snap.Prepared(), pol: pol, cfg: cfg, dim: ix.dim}, nil
}

// SolveContext answers one query on the current snapshot under a context,
// with the index's default options merged with the per-call ones. The
// answer is byte-identical to SolveContext over the same points with
// WithSkybandPrefilter(true) — the snapshot serves the identical k-skyband
// in the identical order.
func (ix *Index) SolveContext(ctx context.Context, q Query, opts ...Option) (Result, error) {
	cfg := ix.cfg.with(opts)
	snap := ix.inner.Snapshot()
	if cfg.anytimeActive() {
		return ix.anytimeSolve(ctx, cfg, snap, q)
	}
	if ix.cache != nil {
		return ix.cachedSolve(ctx, cfg, snap, q)
	}
	p, err := ix.preparedOn(snap, cfg)
	if err != nil {
		return Result{}, err
	}
	return p.Solve(ctx, q)
}

// cachedSolve serves q through the result cache, pinned to one snapshot:
// the version that keys every lookup is the version a miss is solved on, so a concurrent mutation can never mix epochs within one query.
// Exact hits are byte-identical to a fresh solve (the cache stores the
// fresh artifact, keyed by serving path); a miss is always solved exactly.
// Approximate (A-PC) serving bypasses the cache entirely.
func (ix *Index) cachedSolve(ctx context.Context, cfg config, snap *index.Snapshot, q Query) (Result, error) {
	algo := resolvedAlgo(cfg, ix.dim)
	cacheable := algo != APCAlgo
	cq := q.toCore()
	// Validate before any lookup: a malformed query fails with its
	// *QueryError and never counts as cache traffic.
	if err := cq.Validate(ix.dim); err != nil {
		return Result{}, err
	}
	version := snap.Version()
	if cacheable {
		start := time.Now()
		if r, ok := ix.cache.Get(version, algo.String(), cq); ok {
			return ix.cacheHit(cfg, Result{
				Region:  &Region{inner: r},
				Stats:   Stats{Pieces: r.NumPieces()},
				Elapsed: time.Since(start),
				Cache:   CacheHit,
			}), nil
		}
		cfg.metrics.Counter("cache.miss").Inc()
	}
	p, err := ix.preparedOn(snap, cfg)
	if err != nil {
		return Result{}, err
	}
	res, err := p.Solve(ctx, q)
	if err != nil {
		return res, err
	}
	if cacheable && res.Region != nil {
		res.Cache = CacheMiss
		ix.cache.Put(version, algo.String(), cq, res.Region.inner)
	}
	return res, nil
}

// anytimeSolve serves q on the anytime tier, pinned to one snapshot. The
// result cache participates both ways: a cached answer on the same query
// point seeds the construction — an exact entry for the identical (k, ε)
// short-circuits the solve entirely (the true answer beats any cut), and
// an inner-bound entry's partitions warm-start it (the served region then
// contains the seed, so repeated anytime queries ratchet toward the full
// answer; CacheSource names the seed and "cache.warm_start" counts it) —
// and the cut's region is stored back as an inner-bound entry, never
// served as an exact hit (see cache.PutInner). A seed changes how fast the
// construction covers the region, never the soundness of what it returns.
func (ix *Index) anytimeSolve(ctx context.Context, cfg config, snap *index.Snapshot, q Query) (Result, error) {
	cq := q.toCore()
	// Validate before any lookup: ε ≥ 1 is ≥ every cached ε, so a malformed
	// query could otherwise be seeded from a neighbor.
	if err := cq.Validate(ix.dim); err != nil {
		return Result{}, err
	}
	version := snap.Version()
	var warm []*geom.Cell
	var warmSrc *Query
	if ix.cache != nil {
		start := time.Now()
		if ans := ix.cache.Bound(version, cq); ans != nil {
			switch ans.Kind {
			case cache.Exact:
				// An exact artifact for this very (k, ε): the true answer,
				// already paid for. Serving it dominates every anytime cut.
				return ix.cacheHit(cfg, Result{
					Region:  &Region{inner: ans.Region},
					Stats:   Stats{Pieces: ans.Region.NumPieces()},
					Elapsed: time.Since(start),
					Cache:   CacheHit,
					Tier:    TierExact,
				}), nil
			case cache.Inner:
				// Sound seed: the cached region is contained in this query's
				// true region, so its partitions enter the construction as-is.
				// 2-d interval-backed regions carry no cells — skip those.
				if cells := ans.Region.Cells(); len(cells) > 0 {
					warm = cells
					src := Query{Q: Point(ans.From.Q), K: ans.From.K, Epsilon: ans.From.Eps}
					warmSrc = &src
				}
			}
		}
	}
	p, err := ix.preparedOn(snap, cfg)
	if err != nil {
		return Result{}, err
	}
	if warm != nil {
		p.pol.Solver = core.APCSolver{Opt: anytimeOptions(cfg, warm)}
		cfg.metrics.Counter("cache.warm_start").Inc()
	}
	res, err := p.Solve(ctx, q)
	if err != nil {
		return res, err
	}
	res.CacheSource = warmSrc
	if ix.cache != nil {
		res.Cache = CacheMiss
		ix.cache.PutInner(version, "anytime", cq, res.Region.inner)
	}
	return res, nil
}

// cacheHit finalizes a cache-served result: request accounting matches a
// solved query ("rrq.solves"), plus "cache.hit".
func (ix *Index) cacheHit(cfg config, res Result) Result {
	cfg.metrics.Counter("rrq.solves").Inc()
	cfg.metrics.Counter("cache.hit").Inc()
	return res
}

// SolveBatch answers the queries concurrently on one snapshot of the index
// — every query of the batch sees the same epoch even while mutations run.
// Batch semantics (worker pool, per-query isolation, report aggregation)
// are those of Prepared.SolveBatch.
func (ix *Index) SolveBatch(ctx context.Context, queries []Query, opts ...Option) (*BatchReport, error) {
	cfg := ix.cfg.with(opts)
	p, err := ix.preparedOn(ix.inner.Snapshot(), cfg)
	if err != nil {
		return nil, err
	}
	return p.SolveBatch(ctx, queries), nil
}

// Save writes the current snapshot to w in a self-contained binary format:
// the points and the epoch counter. Derived state (skyband views, plane
// sets) is recomputed on load rather than serialized, so saved indexes stay
// valid across cache-layout changes.
func (ix *Index) Save(w io.Writer) error { return ix.inner.Save(w) }

// LoadIndex restores an index written by Save and resumes it at the saved
// epoch. The options configure solving defaults exactly as in BuildIndex.
// Files are validated (magic, format version, checksum) and rejected with a
// typed error on mismatch; the decoded points pass the same data rule as
// NewDataset, and a point that fails it is a *DataError wrapped in the
// rejection.
func LoadIndex(r io.Reader, opts ...Option) (*Index, error) {
	inner, err := index.Load(r)
	if err != nil {
		return nil, err
	}
	return newIndex(inner, nil, newConfig(opts))
}

package rrq

// Batch serving layer: one dataset's preprocessing shared across many
// queries, fanned out over a bounded worker pool. The per-dataset work
// (the optional k-skyband prefilter) is done once in Prepare;
// each query then runs independently, with per-query error isolation and
// deterministic, input-ordered results. Metrics (WithMetrics) fixed at
// Prepare time flow into every solve.

import (
	"context"
	"time"

	"rrq/internal/core"
	"rrq/internal/geom"
	"rrq/internal/obs"
)

// Prepared is a dataset bound to a solver configuration, ready to answer
// many queries. It is safe for concurrent use: the underlying preprocessing
// is immutable (the skyband cache is internally synchronized), so one
// Prepared can serve Solve and SolveBatch calls from any number of
// goroutines.
type Prepared struct {
	prep *core.Prepared
	pol  core.SolvePolicy
	cfg  config
	dim  int
}

// Prepare fixes the solver configuration for subsequent Solve/SolveBatch
// calls. The dataset's points were checked when it was built, so Prepare
// does not scan them again. The same Options as SolveContext apply;
// WithSkybandPrefilter additionally makes every query run on the cached
// k-skyband of its rank parameter, and the resilience options
// (WithQueryTimeout, WithWorkBudget) fix the per-query serving policy every
// solve runs under.
func Prepare(d *Dataset, opts ...Option) (*Prepared, error) {
	cfg := newConfig(opts)
	prep, err := core.Prepare(d.points(), d.Dim(), cfg.skyband)
	if err != nil {
		return nil, err
	}
	pol, err := policyFor(cfg, d.Dim())
	if err != nil {
		return nil, err
	}
	return &Prepared{prep: prep, pol: pol, cfg: cfg, dim: d.Dim()}, nil
}

// Solve answers one query against the prepared dataset, returning the full
// Result. Every solve is guarded: a solver panic comes back as a per-call
// *SolveError rather than crashing the process, and the per-query timeout
// and work budget apply. On the anytime tier the cut budgets bound the run
// instead, and the Result carries the accuracy receipt. On error the Result
// still carries the partial Stats and elapsed time of the failed solve.
func (p *Prepared) Solve(ctx context.Context, q Query) (Result, error) {
	cq := q.toCore()
	start := time.Now()
	r, st, err := p.pol.Solve(p.cfg.obsContext(ctx), p.prep, cq, -1)
	res := Result{Stats: st, Tier: tierFor(p.cfg, p.dim)}
	p.cfg.metrics.Counter("rrq.solves").Inc()
	if err != nil {
		p.cfg.metrics.Counter("rrq.solve_errors").Inc()
	} else {
		res.Region = &Region{inner: r}
		res.Accuracy = p.receipt(r, st, cq)
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// tierFor classifies the answers of a configuration: TierAnytime on the
// anytime tier, TierApprox when A-PC produces the region, TierExact
// otherwise.
func tierFor(cfg config, dim int) SolverTier {
	switch {
	case cfg.anytimeActive():
		return TierAnytime
	case resolvedAlgo(cfg, dim) == APCAlgo:
		return TierApprox
	default:
		return TierExact
	}
}

// anytimeOptions maps the public configuration onto the cut A-PC run of the
// anytime tier: the A-PC sample/seed knobs carry over, the anytime knobs
// become the cut budgets, and warm holds the partitions of a previously
// served inner bound to start from.
func anytimeOptions(cfg config, warm []*geom.Cell) core.APCOptions {
	return core.APCOptions{
		Samples:    cfg.samples,
		Seed:       cfg.seed,
		MaxSamples: cfg.anytimeSamples,
		Budget:     cfg.anytimeBudget,
		Warm:       warm,
	}
}

// receipt is the accuracy receipt of an anytime answer; nil on the other
// tiers, which do not pay for the volume estimate.
func (p *Prepared) receipt(r *core.Region, st core.Stats, q core.Query) *Accuracy {
	if !p.cfg.anytimeActive() {
		return nil
	}
	acc := core.AccuracyOf(r, st, q, anytimeOptions(p.cfg, nil))
	return &acc
}

// BatchResult is one query's outcome within a batch: the full Result of the
// solve, or the per-query error. A failed query never affects its
// neighbours; its Result still reports the partial Stats and elapsed time.
// A solver panic surfaces as that query's *SolveError (match with
// errors.As).
type BatchResult struct {
	Result
	Err error
	// Dedup marks a slot whose query was an exact duplicate (equal
	// Query.Key) of an earlier one in the batch: the result is a copy of
	// that single solve (regions are immutable and safely shared), Stats
	// describe the shared solve, and Elapsed is zero — no work ran for this
	// slot.
	Dedup bool
}

// BatchReport aggregates a whole batch: the per-query results in input
// order plus batch-level accounting — wall-clock time, summed per-query
// time (≥ Elapsed under parallelism), aggregated work counters over the
// successful queries, success/failure counts, and per-phase timing
// snapshots when metrics are enabled.
type BatchReport struct {
	// Results holds one entry per input query, in input order.
	Results []BatchResult
	// Elapsed is the wall-clock duration of the whole batch.
	Elapsed time.Duration
	// QueryTime is the sum of every query's solve time; with w workers it
	// approaches w × Elapsed on saturated pools.
	QueryTime time.Duration
	// Agg sums the Stats counters of the successful queries.
	Agg Stats
	// Solved and Failed count the queries that returned a region vs. an
	// error. Deduped counts the slots answered by copying an exact
	// duplicate's solve; their copied Stats still sum into Agg (Agg
	// describes the answers delivered), while the work actually saved shows
	// in QueryTime, where a deduped slot is zero.
	Solved, Failed, Deduped int
	// Phases maps solver phase names (e.g. "phase.ept.insert") to timing
	// histograms covering exactly this batch. Nil unless WithMetrics was
	// set at Prepare time.
	Phases map[string]TimerSnapshot
}

// SolveBatch answers the queries concurrently over the shared
// preprocessing, using the worker count fixed at Prepare time (WithWorkers;
// ≤ 0 means GOMAXPROCS). WithIntraQueryWorkers additionally parallelizes
// the inside of each solve; the two multiply, so keep workers × intra near
// GOMAXPROCS. Results arrive in query order regardless of scheduling.
// The batch amortizes work across its queries — duplicate collapse, one
// shared skyband pass, per-(point, ε) plane groups and clustered dispatch
// — with answers byte-identical to independent solves. When ctx is
// canceled mid-batch, in-flight solves abort at their next amortized check
// (a deadline surfaces as ErrDeadline, cancellation as ctx.Err()) and
// queries not yet started report ctx.Err() without running.
//
// With WithMetrics set, phase timings are recorded into a private registry
// so the report's Phases covers exactly this batch, then merged into the
// user's registry along with the rrq.solves / rrq.solve_errors counters.
func (p *Prepared) SolveBatch(ctx context.Context, queries []Query) *BatchReport {
	var batchReg *obs.Registry
	if p.cfg.metrics != nil {
		batchReg = obs.NewRegistry()
	}
	ctx = obs.ContextWithRegistry(ctx, batchReg)
	cqs := make([]core.Query, len(queries))
	for i, q := range queries {
		cqs[i] = q.toCore()
	}
	start := time.Now()
	outs := core.SolveBatchPolicy(ctx, p.pol, p.prep, cqs, p.cfg.workers)
	rep := &BatchReport{
		Results: make([]BatchResult, len(outs)),
		Elapsed: time.Since(start),
	}
	for i, o := range outs {
		br := BatchResult{Err: o.Err, Dedup: o.Dedup}
		br.Stats = o.Stats
		br.Elapsed = o.Elapsed
		br.Tier = tierFor(p.cfg, p.dim)
		rep.QueryTime += o.Elapsed
		if o.Dedup {
			rep.Deduped++
		}
		if o.Err == nil {
			br.Region = &Region{inner: o.Region}
			br.Accuracy = p.receipt(o.Region, o.Stats, cqs[i])
			rep.Solved++
			rep.Agg.Add(o.Stats)
		} else {
			rep.Failed++
		}
		rep.Results[i] = br
	}
	batchReg.Counter("rrq.solves").Add(int64(len(outs)))
	batchReg.Counter("rrq.solve_errors").Add(int64(rep.Failed))
	rep.Phases = batchReg.Timers()
	p.cfg.metrics.Merge(batchReg)
	return rep
}

// SolveBatch prepares the dataset once and answers all queries through a
// bounded worker pool — the one-shot form of Prepare + Prepared.SolveBatch.
func SolveBatch(ctx context.Context, d *Dataset, queries []Query, opts ...Option) (*BatchReport, error) {
	p, err := Prepare(d, opts...)
	if err != nil {
		return nil, err
	}
	return p.SolveBatch(ctx, queries), nil
}

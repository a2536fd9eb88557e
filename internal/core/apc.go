package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"time"

	"rrq/internal/geom"
	"rrq/internal/vec"
)

// APCOptions configures one A-PC run. Whether the run merges is decided by
// the cut budgets: a run with neither MaxSamples nor Budget set cannot be
// cut and builds the paper's merged construction; a run with either set
// streams its samples and can stop at any partition boundary.
type APCOptions struct {
	// Samples is the candidate pool N. When ≤ 0 the paper's default
	// N = 10·(d−1) is used (§6.3). Cuts only ever stop a run earlier.
	Samples int
	// Seed drives the deterministic sampler: candidate i is the same draw
	// on every run of the same seed, which is what makes cuts monotone.
	Seed int64
	// Workers parallelizes the per-sample utility scans (the O(N·n·d)
	// phase) of a run that cannot be cut. ≤ 1 runs serially. The result is
	// identical for any worker count: samples are drawn up front and merged
	// in sample order.
	Workers int
	// MaxSamples cuts the run once this many candidates have been consumed.
	// ≤ 0 disables the sample cut.
	MaxSamples int
	// Budget cuts the run at the first partition boundary after the
	// wall-clock budget elapses. ≤ 0 disables the time cut. Sample cuts are
	// deterministic; time cuts are not — prefer MaxSamples wherever a
	// replayable answer matters.
	Budget time.Duration
	// Warm seeds the run with cells already known to be qualified for this
	// query (a cached inner bound from a neighbor with k' ≤ k and ε' ≤ ε).
	// Warm cells join the Lemma 5.8 dedup set and the returned region, so
	// the answer is a monotone improvement over the seed.
	Warm []*geom.Cell
}

// poolSize is the candidate pool N for dimension d.
func (o APCOptions) poolSize(d int) int {
	if o.Samples > 0 {
		return o.Samples
	}
	return 10 * (d - 1)
}

// SampleSizeFor returns the sample size of Lemma 5.10 that finds every
// qualified partition of volume ratio > rho with confidence 1−delta:
// N = (d + ln(1/δ)) / ρ².
func SampleSizeFor(rho, delta float64, d int) int {
	if rho <= 0 || rho >= 1 || delta <= 0 || delta >= 1 {
		return 0
	}
	return int(math.Ceil((float64(d) + math.Log(1/delta)) / (rho * rho)))
}

// APCSolver solves RRQ approximately by progressive construction (paper
// §5.2, Algorithm 3): sample utility vectors from Opt.Seed in order, keep
// the qualified ones, and build one qualified partition per kept sample
// (Lemma 5.7), skipping samples that land in an already-built partition
// (Lemma 5.8). Every returned partition is qualified in full; partitions
// never hit by a sample may be missed, which is the approximation (bounded
// by Lemma 5.10, see AccuracyOf). Seeds are deterministic per query, so
// batch answers match sequential ones.
//
// A run that cannot be cut (no MaxSamples, no Budget) is the paper's A-PC:
// it classifies its whole pool up front — in parallel under Workers — and
// merges samples whose positive sets nest (Lemma 5.9) before building. A
// run that can be cut is the anytime tier's: it streams instead, appending
// each qualified sample's partition at once and never merging, and stops
// at the first partition boundary past MaxSamples or Budget. Merging would
// mutate partitions an earlier cut already returned, so only the streamed
// form keeps every prefix a subset of every longer one.
//
// The classification and construction loops observe cancellation with
// amortized checks. A metrics registry attached to ctx (see internal/obs)
// receives the solve's phase timings.
type APCSolver struct {
	Opt APCOptions
}

func (APCSolver) Name() string { return "A-PC" }

func (s APCSolver) Solve(ctx context.Context, prep *Prepared, q Query) (*Region, Stats, error) {
	if err := prep.Validate(q); err != nil {
		return nil, Stats{}, err
	}
	return apcSolve(ctx, prep, q, s.Opt)
}

// apcSolve is the A-PC body. Its planes come from prep.Planes: the same
// arrangement the exact solvers of the Prepared draw on, served from a
// batch's plane store when it has one.
func apcSolve(ctx context.Context, prep *Prepared, q Query, opt APCOptions) (*Region, Stats, error) {
	var st Stats
	d := q.Q.Dim()
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, check.Err()
	}
	// The partitions keep their constraints' normals, so the planes must
	// live in storage the solve owns, never the pool.
	ps := prep.Planes(q, check)
	run := &apcRun{
		d:      d,
		planes: ps.Crossing,
		k:      ps.KEff(q.K),
		rng:    rand.New(rand.NewSource(opt.Seed)),
		check:  check,
	}
	run.cells = append(run.cells, opt.Warm...)
	n := opt.poolSize(d)
	var err error
	if opt.MaxSamples > 0 || opt.Budget > 0 {
		st.Samples, err = run.stream(n, opt)
	} else {
		st.Samples = n
		err = run.merged(ctx, n, opt.Workers)
	}
	if err != nil {
		return nil, st, err
	}
	st.Pieces = len(run.cells)
	if len(run.cells) == 0 {
		return EmptyRegion(d), st, nil
	}
	return NewCellRegion(d, run.cells), st, nil
}

// apcRun is the state of one A-PC run: the crossing planes and the
// effective rank k − Base they are counted against, the seeded sample
// stream and the cells built so far.
type apcRun struct {
	d      int
	planes []geom.Hyperplane
	k      int
	rng    *rand.Rand
	check  *CtxChecker
	cells  []*geom.Cell
}

// merged is the run that cannot be cut (Algorithm 3 as published): draw
// the whole pool of n, classify it (the O(N·n·d) phase, in parallel when
// workers > 1), merge samples whose positive sets nest (Lemma 5.9), then
// build one partition per surviving sample.
func (run *apcRun) merged(ctx context.Context, n, workers int) error {
	check, d := run.check, run.d
	classifyPhase := check.Phase("phase.apc.classify")
	// Abort net: the closer is idempotent, so a cancellation or worker
	// failure mid-classify still closes the phase exactly once.
	defer classifyPhase()

	// Draw all samples up front so the answer does not depend on the
	// worker count, then classify them.
	us := make([]vec.Vec, n)
	for i := range us {
		us[i] = vec.RandSimplex(run.rng, d)
	}
	negs := make([][]int32, n)
	oks := make([]bool, n)
	if workers > 1 {
		err := parallelFor(ctx, workers, n, 0x3f, func(i int) {
			negs[i], oks[i] = apcClassify(run.planes, run.k, us[i])
		})
		if err != nil {
			return err
		}
	} else {
		for i, u := range us {
			if check.Stop() {
				return check.Err()
			}
			negs[i], oks[i] = apcClassify(run.planes, run.k, u)
		}
	}
	classifyPhase()
	constructPhase := check.Phase("phase.apc.construct")
	defer constructPhase()

	// Keep the qualified samples with their D⁻ sets. D⁻ has fewer than k
	// elements for a qualified sample, so the sets stay tiny and D⁺ ⊆ D⁺'
	// tests reduce to superset tests on D⁻.
	//
	// Each kept sample carries two roles of its D⁻ set: orig stays fixed
	// and defines D⁺ = complement(orig) for the subset tests and the
	// positive constraints, while negC (initially orig) is the set used
	// for the negative constraints and may shrink through merges. Points
	// in orig \ negC are left unconstrained, which is precisely how the
	// merged partition becomes the union of the samples' partitions.
	type sample struct {
		u    vec.Vec
		orig []int32 // D⁻ at sampling time (sorted)
		negC []int32 // D⁻ used for negative constraints after merging
	}
	var kept []sample
	for i, u := range us {
		if oks[i] {
			kept = append(kept, sample{u: u, orig: negs[i], negC: negs[i]})
		}
	}

	// Refinement (Algorithm 3 lines 6–12): D⁺_{u1} ⊆ D⁺_{u2} iff
	// D⁻_{u2} ⊆ D⁻_{u1}. Keep u1 and narrow its negative set to
	// negC_{u1} ∩ negC_{u2}; the partition built from (D⁺_{u1}, negC)
	// then contains every partition the survivor has absorbed (Lemma 5.9).
	// Narrowing by intersection rather than overwriting matters once a
	// survivor absorbs two samples with incomparable D⁻ sets: overwriting
	// would re-impose the first sample's negative constraints and drop its
	// partition from the region.
	alive := make([]bool, len(kept))
	for i := range alive {
		alive[i] = true
	}
	for i := range kept {
		if !alive[i] {
			continue
		}
		for j := i + 1; j < len(kept); j++ {
			if !alive[j] {
				continue
			}
			switch {
			case subsetInt32(kept[j].orig, kept[i].orig): // D⁺_i ⊆ D⁺_j
				kept[i].negC = intersectInt32(kept[i].negC, kept[j].negC)
				alive[j] = false
			case subsetInt32(kept[i].orig, kept[j].orig): // D⁺_j ⊆ D⁺_i
				kept[j].negC = intersectInt32(kept[j].negC, kept[i].negC)
				alive[i] = false
			}
			if !alive[i] {
				break
			}
		}
	}

	for i, s := range kept {
		if !alive[i] {
			continue
		}
		if err := run.add(s.u, s.orig, s.negC); err != nil {
			return err
		}
	}
	return nil
}

// stream is the run that can be cut: consume the pool of n strictly in
// order and append each qualified sample's own partition at once, never
// revisiting an emitted cell, until the pool is exhausted or a budget of
// opt cuts the run. Cuts happen at partition boundaries only — a partition
// is either fully built and appended or not started — so for one seed the
// cells after n₁ consumed samples are a prefix of the cells after n₂ ≥ n₁.
// Returns the number of samples consumed.
func (run *apcRun) stream(n int, opt APCOptions) (int, error) {
	check := run.check
	phase := check.Phase("phase.apc.anytime")
	defer phase()
	var deadline time.Time
	if opt.Budget > 0 {
		deadline = time.Now().Add(opt.Budget)
	}
	consumed := 0
	for consumed < n {
		if opt.MaxSamples > 0 && consumed >= opt.MaxSamples {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if check.Stop() {
			return consumed, check.Err()
		}
		u := vec.RandSimplex(run.rng, run.d)
		consumed++
		neg, ok := apcClassify(run.planes, run.k, u)
		if !ok {
			continue
		}
		if err := run.add(u, neg, neg); err != nil {
			return consumed, err
		}
	}
	return consumed, nil
}

// add builds sample u's partition (Lemma 5.7) unless u already lies in a
// built cell (Lemma 5.8).
func (run *apcRun) add(u vec.Vec, orig, negC []int32) error {
	for _, c := range run.cells {
		if c.Contains(u) {
			return nil
		}
	}
	c, err := run.buildPartition(orig, negC)
	if err == nil && c != nil {
		run.cells = append(run.cells, c)
	}
	return err
}

// Accuracy is the accuracy receipt of a run that can be cut, derived from
// Lemma 5.10 for the samples actually consumed rather than the samples
// requested. AccuracyOf computes it from the run's result.
type Accuracy struct {
	// SamplesUsed is the number of candidate samples consumed before the
	// cut (Stats.Samples).
	SamplesUsed int
	// RhoBound is the Lemma 5.10 volume-ratio bound for SamplesUsed: with
	// probability ≥ 1−Delta, every qualified partition of volume ratio
	// > RhoBound was hit by at least one consumed sample. Inverted from
	// N = (d + ln(1/δ))/ρ²; clamped to 1 when the samples are too few to
	// bound anything.
	RhoBound float64
	// Delta is the confidence parameter the bound was computed at.
	Delta float64
	// Cut reports whether a budget stopped the construction before it
	// exhausted the sample pool.
	Cut bool
	// VolumeEst is a Monte-Carlo estimate of the returned region's volume
	// from a stream decorrelated from the solver's own (see measureSeedFor).
	VolumeEst float64
}

// The receipt's fixed parameters: the confidence δ of the ρ bound and the
// size of the Monte-Carlo volume estimate.
const (
	receiptDelta    = 0.05
	receiptMeasures = 2000
)

// AccuracyOf is the accuracy receipt of an A-PC result r with stats st,
// produced for q under opt. Every field is a function of the result: the
// samples consumed, whether they fell short of the pool, the Lemma 5.10 ρ
// for them at δ = 0.05, and a 2000-sample volume estimate. The estimate
// costs a pass over the region, so only callers that report the receipt
// (the anytime tier) should pay for it.
func AccuracyOf(r *Region, st Stats, q Query, opt APCOptions) Accuracy {
	d := q.Q.Dim()
	return Accuracy{
		SamplesUsed: st.Samples,
		RhoBound:    RhoFor(st.Samples, receiptDelta, d),
		Delta:       receiptDelta,
		Cut:         st.Samples < opt.poolSize(d),
		VolumeEst:   r.MeasureWithSeed(measureSeedFor(opt.Seed), receiptMeasures),
	}
}

// RhoFor inverts Lemma 5.10 for a consumed sample count: the smallest
// volume ratio ρ such that N samples find every qualified partition of
// ratio > ρ with confidence 1−delta. It is SampleSizeFor solved for ρ,
// clamped to 1.
func RhoFor(samples int, delta float64, d int) float64 {
	if samples <= 0 || delta <= 0 || delta >= 1 {
		return 1
	}
	r := math.Sqrt((float64(d) + math.Log(1/delta)) / float64(samples))
	if r > 1 {
		return 1
	}
	return r
}

// measureSeedFor derives the accuracy-measurement seed from the solver seed
// with a splitmix-style mix, so the measurement stream shares no prefix
// with the solver's own rand.NewSource(seed) stream even though both are
// pure functions of the one configured seed. Replaying the solver's stream
// would be biased: every qualified solver sample lies in the returned region
// by construction, so a correlated estimate overstates coverage.
func measureSeedFor(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// apcClassify computes one sample's D⁻ set: the IDs of the crossing
// planes negative at u, ascending because the planes are in band order.
// The base planes are negative everywhere and already folded into k (see
// PlaneSet.KEff), and dropped planes never count. ok is false when the set
// reaches k — the sample is unqualified and its partial D⁻ is discarded;
// when k ≤ 0 no sample qualifies.
func apcClassify(planes []geom.Hyperplane, k int, u vec.Vec) (neg []int32, ok bool) {
	if k <= 0 {
		return nil, false
	}
	for _, h := range planes {
		if h.Eval(u) < 0 {
			neg = append(neg, int32(h.ID))
			if len(neg) >= k {
				return nil, false
			}
		}
	}
	return neg, true
}

// buildPartition intersects the simplex with h⁻ for every plane in negC,
// h⁺ for every plane outside orig, and leaves planes in orig \ negC
// unconstrained (paper §5.2.1–5.2.2). Both sets are ascending plane IDs
// and negC ⊆ orig, so one cursor each walks them beside the planes. Planes
// that do not constrain the current cell are skipped by Clip via the
// relation tests, so the cell description stays small.
func (run *apcRun) buildPartition(orig, negC []int32) (*geom.Cell, error) {
	cell := geom.NewSimplex(run.d)
	oi, ni := 0, 0
	for _, h := range run.planes {
		if run.check.Stop() {
			return nil, run.check.Err()
		}
		sign := +1
		if oi < len(orig) && orig[oi] == int32(h.ID) {
			oi++
			if ni >= len(negC) || negC[ni] != int32(h.ID) {
				continue // merged away: left unconstrained
			}
			ni++
			sign = -1
		}
		cell = cell.Clip(h, sign)
		if cell == nil {
			return nil, nil // numerically empty (sample sat on a boundary)
		}
		if cell.NumVertices() > maxAPCVerts {
			// Vertex-superset blow-up: constructing this partition would
			// dominate the run. Dropping it keeps the answer sound (A-PC
			// may under-report) at a small recall cost.
			return nil, nil
		}
	}
	return cell, nil
}

// maxAPCVerts bounds the maintained vertex count of a partition under
// construction; beyond it a single clip costs O(V²) and stops being worth
// the recall.
const maxAPCVerts = 5000

// subsetInt32 reports whether every element of a (sorted) occurs in b
// (sorted).
func subsetInt32(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		i += sort.Search(len(b)-i, func(k int) bool { return b[i+k] >= x })
		if i >= len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// intersectInt32 returns the elements common to the sorted sets a and b, in
// a fresh slice (merged negative sets may be shared between samples).
func intersectInt32(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

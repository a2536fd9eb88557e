package core

// Anytime A-PC: the progressive construction of Algorithm 3 restructured so
// it can be cut at any partition boundary and resumed later. The plain
// APCContext draws its whole sample pool, merges nested samples (Lemma 5.9)
// and only then builds partitions, so a mid-run cut would observe a region
// that later merging mutates. The anytime construction instead processes
// the deterministic sample stream strictly in order and appends each
// Lemma 5.7 partition as soon as its sample qualifies, never revisiting an
// emitted cell. Two invariants follow by construction:
//
//   - soundness of every prefix: each appended partition is fully qualified
//     (Lemma 5.7), so the region after any number of consumed samples is a
//     subset of the true region — exactly the A-PC one-sidedness, preserved
//     at every cut, not just at completion;
//   - monotonicity across cuts: for the same seed and options, the cells
//     after consuming n₁ samples are a prefix of the cells after n₂ ≥ n₁,
//     so region(n₁) ⊆ region(n₂). Serving can therefore degrade a query to
//     a smaller budget without ever "shrinking" a previously served answer.
//
// Skipping the Lemma 5.9 merge costs coverage, not only a finer
// decomposition. Each anytime cell is exactly the partition of one
// qualified sample, while a merged A-PC cell leaves the absorbed samples'
// differing points unconstrained and so also covers partitions no sample
// hit. On the same seed and pool the uncut anytime region is therefore a
// subset of A-PC's region, and often a strict one. The Lemma 5.8 dedup
// still skips samples landing in an emitted cell.

import (
	"context"
	"math"
	"math/rand"
	"time"

	"rrq/internal/geom"
	"rrq/internal/obs"
	"rrq/internal/vec"
)

// AnytimeOptions configures one anytime A-PC run.
type AnytimeOptions struct {
	// Samples is the total candidate pool N. When ≤ 0 the paper's default
	// N = 10·(d−1) is used (§6.3). The pool bounds how far the construction
	// can ever get; cuts only ever stop it earlier.
	Samples int
	// Seed drives the deterministic sampler. Unlike APCOptions there is no
	// Rng escape hatch: the anytime contract (prefix monotonicity across
	// cuts, resumability) requires the sample stream to be a pure function
	// of the seed.
	Seed int64
	// MaxSamples cuts the construction once this many candidates (counting
	// the StartSample prefix) have been consumed. 0 disables the sample cut.
	MaxSamples int
	// Budget cuts the construction at the first partition boundary after
	// the wall-clock budget elapses. 0 disables the time cut. Sample cuts
	// are deterministic; time cuts are not — prefer MaxSamples wherever a
	// replayable answer matters.
	Budget time.Duration
	// StartSample resumes a previous run: the first StartSample candidates
	// are drawn (to keep the stream aligned) but not classified. Sound when
	// Warm holds the cells of a previous cut with the same seed, pool and
	// query — every partition the skipped prefix would build is already
	// there. The skipped prefix still counts into Accuracy.SamplesUsed.
	StartSample int
	// Warm seeds the construction with cells already known to be qualified
	// for this query (a previous cut's region, or a cached inner bound from
	// a neighbor with k' ≤ k and ε' ≤ ε). Warm cells join the Lemma 5.8
	// dedup set and the returned region, so the answer is a monotone
	// improvement over the seed.
	Warm []*geom.Cell
	// Delta is the confidence parameter δ of the reported ρ bound
	// (default 0.05).
	Delta float64
	// MeasureSeed seeds the independent volume estimate (0 derives a stream
	// decorrelated from Seed). It must never replay the solver's own sample
	// stream: every qualified solver sample lies in the returned region by
	// construction, so a correlated estimate systematically overstates
	// coverage and understates the volume error.
	MeasureSeed int64
	// MeasureSamples sizes the Monte-Carlo volume estimate (default 2000).
	MeasureSamples int
}

// Accuracy is the enforced accuracy contract of an anytime answer, derived
// from Lemma 5.10 for the samples actually consumed rather than the samples
// requested.
type Accuracy struct {
	// SamplesUsed is the number of candidate samples consumed before the
	// cut (including a resumed run's StartSample prefix).
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
	// from an independent seeded stream (see AnytimeOptions.MeasureSeed).
	VolumeEst float64
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

// measureSeedFor derives the default accuracy-measurement seed from the
// solver seed with a splitmix-style mix, so the measurement stream shares
// no prefix with the solver's own rand.NewSource(seed) stream even though
// both are pure functions of the one configured seed.
func measureSeedFor(seed int64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// APCAnytime is APCAnytimeContext with a background context.
func APCAnytime(pts []vec.Vec, q Query, opt AnytimeOptions) (*Region, Accuracy, error) {
	r, _, acc, err := APCAnytimeContext(context.Background(), pts, q, opt)
	return r, acc, err
}

// APCAnytimeContext runs the anytime A-PC construction under a context: the
// deterministic sample stream is consumed in order, each qualifying sample's
// Lemma 5.7 partition is appended immediately (Lemma 5.8 dedup against the
// emitted and warm cells; no Lemma 5.9 merging, which would mutate earlier
// partitions and break prefix monotonicity), and the run stops at the first
// partition boundary past its sample or wall-clock budget. The returned
// Accuracy reports the Lemma 5.10 ρ bound for the samples actually consumed
// and an independently seeded volume estimate.
func APCAnytimeContext(ctx context.Context, pts []vec.Vec, q Query, opt AnytimeOptions) (*Region, Stats, Accuracy, error) {
	var st Stats
	var acc Accuracy
	d := q.Q.Dim()
	if err := ValidateInstance(pts, q); err != nil {
		return nil, st, acc, err
	}
	check := NewCtxChecker(ctx, 0xff)
	check.SetFaultKey(q.Q)
	if check.Failed() {
		return nil, st, acc, check.Err()
	}
	if opt.Delta <= 0 || opt.Delta >= 1 {
		opt.Delta = 0.05
	}
	if opt.MeasureSamples <= 0 {
		opt.MeasureSamples = 2000
	}
	n := opt.Samples
	if n <= 0 {
		n = 10 * (d - 1)
	}
	if opt.StartSample < 0 {
		opt.StartSample = 0
	}
	if opt.StartSample > n {
		opt.StartSample = n
	}
	phase := check.Phase("phase.apc.anytime")
	defer phase()

	rng := rand.New(rand.NewSource(opt.Seed))
	dropped := apcDroppedPlanes(pts, q)
	cells := make([]*geom.Cell, 0, len(opt.Warm)+8)
	cells = append(cells, opt.Warm...)

	var deadline time.Time
	if opt.Budget > 0 {
		deadline = time.Now().Add(opt.Budget)
	}
	// Burn the resumed prefix so candidate i is the identical draw on every
	// run of the same seed — the property the prefix invariants rest on.
	for i := 0; i < opt.StartSample; i++ {
		vec.RandSimplex(rng, d)
	}
	consumed := opt.StartSample
	for i := opt.StartSample; i < n; i++ {
		// Cuts happen at partition boundaries only: a partition is either
		// fully constructed and appended or not started, never half-built.
		if opt.MaxSamples > 0 && consumed >= opt.MaxSamples {
			acc.Cut = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			acc.Cut = true
			break
		}
		if check.Stop() {
			return nil, st, acc, check.Err()
		}
		u := vec.RandSimplex(rng, d)
		consumed++
		neg, ok := apcClassify(pts, q, dropped, u)
		if !ok {
			continue
		}
		already := false
		for _, c := range cells {
			if c.Contains(u) {
				already = true
				break
			}
		}
		if already {
			continue
		}
		c, err := buildPartition(pts, q, u, neg, neg, check)
		if err != nil {
			return nil, st, acc, err
		}
		if c != nil {
			cells = append(cells, c)
		}
	}
	st.Samples = consumed - opt.StartSample
	st.Pieces = len(cells)
	check.Emit(obs.EvSampleClassified, st.Samples)
	check.Emit(obs.EvPieceEmitted, st.Pieces)
	var r *Region
	if len(cells) == 0 {
		r = emptyRegion(d)
	} else {
		r = newCellRegion(d, cells)
	}
	acc.SamplesUsed = consumed
	acc.Delta = opt.Delta
	acc.RhoBound = RhoFor(consumed, opt.Delta, d)
	seed := opt.MeasureSeed
	if seed == 0 {
		seed = measureSeedFor(opt.Seed)
	}
	acc.VolumeEst = r.MeasureWithSeed(seed, opt.MeasureSamples)
	return r, st, acc, nil
}

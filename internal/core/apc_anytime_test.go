package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// apcWithReceipt runs A-PC and returns its result with its accuracy receipt.
func apcWithReceipt(t *testing.T, pts []vec.Vec, q Query, opt APCOptions) (*Region, Stats, Accuracy, error) {
	r, st, err := solveOn(t.Context(), APCSolver{Opt: opt}, pts, q)
	if err != nil {
		return nil, st, Accuracy{}, err
	}
	return r, st, AccuracyOf(r, st, q, opt), nil
}

// Every streamed prefix of the anytime construction must be sound (never
// contain an unqualified preference) and monotone: cutting later can only
// grow the region.
func TestAnytimeSoundAndMonotonePrefixes(t *testing.T) {
	rng := rand.New(rand.NewSource(571))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 30, d)
		n := 80
		cuts := []int{n / 4, n / 2, 3 * n / 4, n}
		var prev *Region
		prevPieces := -1
		for _, cut := range cuts {
			r, st, acc, err := apcWithReceipt(t, pts, q, APCOptions{
				Samples: n, Seed: int64(trial), MaxSamples: cut,
			})
			if err != nil {
				t.Fatalf("trial %d cut %d: %v", trial, cut, err)
			}
			if acc.SamplesUsed != cut {
				t.Fatalf("trial %d cut %d: SamplesUsed=%d", trial, cut, acc.SamplesUsed)
			}
			if acc.Cut != (cut < n) {
				t.Fatalf("trial %d cut %d: Cut=%v", trial, cut, acc.Cut)
			}
			if st.Samples != cut {
				t.Fatalf("trial %d cut %d: Stats.Samples=%d", trial, cut, st.Samples)
			}
			checkRegionAgainstOracle(t, r, pts, q, rng, 60, false)
			if st.Pieces < prevPieces {
				t.Fatalf("trial %d cut %d: pieces shrank %d → %d", trial, cut, prevPieces, st.Pieces)
			}
			if prev != nil {
				for i := 0; i < 60; i++ {
					u := vec.RandSimplex(rng, d)
					if prev.Contains(u) && !r.Contains(u) {
						t.Fatalf("trial %d cut %d: region lost %v held at the earlier cut", trial, cut, u)
					}
				}
			}
			prev, prevPieces = r, st.Pieces
		}
	}
}

// A warm start from a stricter neighbor (k' ≤ k, ε' ≤ ε) is exactly the
// cache's inner-bound seeding path: the warm cells join the answer, and the
// combined region must stay sound for the relaxed query.
func TestAnytimeWarmStartFromInnerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(573))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(3)
		pts, q := randomInstance(rng, 30, d)
		q.K++ // headroom so the stricter neighbor is a real instance
		strict := q
		strict.K--
		strict.Eps = q.Eps / 2
		seedRegion, _, err := solveOn(t.Context(), APCSolver{Opt: APCOptions{Samples: 50, Seed: int64(trial)}}, pts, strict)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := solveOn(t.Context(), APCSolver{Opt: APCOptions{
			Samples: 50, Seed: int64(trial) + 7, MaxSamples: 50, Warm: seedRegion.Cells(),
		}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		checkRegionAgainstOracle(t, r, pts, q, rng, 80, false)
		// Monotone improvement over the seed.
		for i := 0; i < 60; i++ {
			u := vec.RandSimplex(rng, d)
			if seedRegion.Contains(u) && !r.Contains(u) {
				t.Fatalf("trial %d: warm-started region lost seed point %v", trial, u)
			}
		}
	}
}

// Regression for the correlated-measurement bug: estimating the region's
// volume by replaying the solver's own sample stream counts exactly the
// samples that seeded the partitions, so it tracks the *true* region's
// volume rather than the constructed subset's and overstates coverage. The
// receipt must use the decoupled stream, and the two paths must diverge on
// an instance the sample pool undercovers. The pool matches the receipt's
// measurement size, so the replay covers every solver sample.
func TestAnytimeMeasureSeedDecoupled(t *testing.T) {
	rng := rand.New(rand.NewSource(574))
	for trial := 0; trial < 20; trial++ {
		pts, q := randomInstance(rng, 60, 4)
		q.K = 2
		q.Eps = 0.05
		opt := APCOptions{Samples: receiptMeasures, Seed: 9, MaxSamples: receiptMeasures}
		r, _, acc, err := apcWithReceipt(t, pts, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if r.Empty() {
			continue // too strict for the divergence check
		}
		correlated := r.MeasureWithSeed(opt.Seed, receiptMeasures) // replays the solver's own stream
		independent := r.MeasureWithSeed(measureSeedFor(opt.Seed), receiptMeasures)
		if acc.VolumeEst != independent {
			t.Fatalf("VolumeEst=%v, want the decoupled-stream estimate %v", acc.VolumeEst, independent)
		}
		if correlated <= independent {
			t.Fatalf("trial %d: correlated estimate %v did not exceed independent %v — the streams are not decoupled the way the bug needs", trial, correlated, independent)
		}
		return
	}
	t.Fatal("precondition: every instance had an empty region; pick a new seed")
}

// RhoFor inverts SampleSizeFor and the reported bound must tighten as the
// construction consumes more samples.
func TestAnytimeRhoBound(t *testing.T) {
	for _, tc := range []struct {
		rho, delta float64
		d          int
	}{{0.1, 0.05, 3}, {0.05, 0.01, 5}, {0.3, 0.1, 2}} {
		n := SampleSizeFor(tc.rho, tc.delta, tc.d)
		if got := RhoFor(n, tc.delta, tc.d); got > tc.rho+1e-9 {
			t.Fatalf("RhoFor(%d)=%v, want ≤ %v", n, got, tc.rho)
		}
	}
	if RhoFor(0, 0.05, 3) != 1 {
		t.Fatal("RhoFor with no samples must clamp to 1")
	}
	rng := rand.New(rand.NewSource(575))
	pts, q := randomInstance(rng, 20, 3)
	var prev float64 = 2
	for _, cut := range []int{10, 40, 160} {
		_, _, acc, err := apcWithReceipt(t, pts, q, APCOptions{Samples: 160, Seed: 1, MaxSamples: cut})
		if err != nil {
			t.Fatal(err)
		}
		if acc.RhoBound >= prev {
			t.Fatalf("RhoBound did not tighten: %v after %d samples (prev %v)", acc.RhoBound, cut, prev)
		}
		prev = acc.RhoBound
	}
}

// An exhausted wall-clock budget cuts before the first sample; the answer
// is the (empty but sound) zero-sample prefix with a vacuous ρ bound.
func TestAnytimeExpiredBudgetCutsImmediately(t *testing.T) {
	rng := rand.New(rand.NewSource(576))
	pts, q := randomInstance(rng, 15, 3)
	r, _, acc, err := apcWithReceipt(t, pts, q, APCOptions{Samples: 40, Seed: 2, Budget: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Budget ≤ 0 is "no cut": the run cannot be cut and must have consumed
	// its whole pool.
	if acc.Cut || acc.SamplesUsed != 40 {
		t.Fatalf("Budget ≤ 0 must disable the time cut: %+v", acc)
	}
	_ = r
	r, _, acc, err = apcWithReceipt(t, pts, q, APCOptions{Samples: 40, Seed: 2, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Cut {
		t.Fatalf("1ns budget did not cut: %+v", acc)
	}
	if acc.SamplesUsed != 0 || !r.Empty() || acc.RhoBound != 1 {
		t.Fatalf("zero-sample cut must be empty with ρ=1: %+v pieces=%d", acc, r.NumPieces())
	}
}

// apcPairCase is one instance of the A-PC vs anytime comparisons: a
// 1000-point market and a query drawn from its 10-skyband, so most queries
// have non-empty regions and real Lemma 5.9 merging.
type apcPairCase struct {
	pts []vec.Vec
	q   Query
	opt APCOptions
}

func apcPairCases() []apcPairCase {
	var cases []apcPairCase
	for d := 3; d <= 5; d++ {
		pts := dataset.Generate(dataset.Independent, 1000, d, int64(d))
		band := skyband.Select(pts, skyband.KSkyband(pts, 10))
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 8; i++ {
			q := Query{Q: dataset.RandQuery(rng, band), K: 3 + rng.Intn(8), Eps: 0.1 + 0.1*rng.Float64()}
			cases = append(cases, apcPairCase{pts, q, APCOptions{Samples: 150, Seed: int64(i + 1)}})
		}
	}
	return cases
}

// Every sample A-PC draws and classifies as qualified must lie in the
// region it returns: the Lemma 5.9 merge only ever widens a survivor's
// partition to cover what it absorbed, including a survivor that absorbs
// two samples with incomparable D⁻ sets.
func TestAPCKeepsQualifiedSamples(t *testing.T) {
	qualified := 0
	for ci, c := range apcPairCases() {
		r, _, err := solveOn(context.Background(), APCSolver{Opt: c.opt}, c.pts, c.q)
		if err != nil {
			t.Fatal(err)
		}
		// Replay A-PC's own sample stream against its plane set.
		rng := rand.New(rand.NewSource(c.opt.Seed))
		ps := buildPlanes(c.pts, c.q, &Arena{})
		for s := 0; s < c.opt.Samples; s++ {
			u := vec.RandSimplex(rng, c.q.Q.Dim())
			if _, ok := apcClassify(ps.Crossing, ps.KEff(c.q.K), u); !ok {
				continue
			}
			qualified++
			if !r.Contains(u) {
				t.Fatalf("case %d (d=%d %v): qualified sample %d at %v is outside the A-PC region", ci, c.q.Q.Dim(), c.q, s, u)
			}
		}
	}
	if qualified < 500 {
		t.Fatalf("precondition: only %d qualified samples; pick new seeds", qualified)
	}
}

// On the same seed and pool, the uncut anytime region is a subset of
// A-PC's: each anytime cell is the partition of one qualified sample, and
// A-PC's region contains every qualified sample's partition. The converse
// does not hold — merged cells also cover partitions no sample hit.
func TestAnytimeWithinAPC(t *testing.T) {
	covered := 0
	for ci, c := range apcPairCases() {
		r, _, err := solveOn(context.Background(), APCSolver{Opt: c.opt}, c.pts, c.q)
		if err != nil {
			t.Fatal(err)
		}
		// MaxSamples at the pool: the run streams (no merge) yet is never cut.
		a, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: c.opt.Samples, Seed: c.opt.Seed, MaxSamples: c.opt.Samples}}, c.pts, c.q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(99 + ci)))
		for i := 0; i < 1000; i++ {
			u := vec.RandSimplex(rng, c.q.Q.Dim())
			if !a.Contains(u) {
				continue
			}
			covered++
			if !r.Contains(u) {
				t.Fatalf("case %d (d=%d %v): %v is in the anytime region but not in A-PC's", ci, c.q.Q.Dim(), c.q, u)
			}
		}
	}
	if covered < 1000 {
		t.Fatalf("precondition: anytime regions cover only %d probes; pick new seeds", covered)
	}
}

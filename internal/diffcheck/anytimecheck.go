package diffcheck

// Anytime differential harness: the progressive A-PC construction must be
// sound at every cut, monotone across cuts, and honest about its accuracy
// contract. For every corpus problem, the construction is cut at a ladder
// of deterministic sample budgets (N/4, N/2, 3N/4, N) and each prefix is
// checked:
//
//   - soundness: no cut's region may contain a preference the half-space
//     counting oracle rejects (margin-guarded) — the one-sided guarantee
//     every A-PC answer carries, enforced on every streamed prefix, not
//     just the full run;
//   - monotonicity: a longer prefix must contain every sampled member of a
//     shorter one and may never shrink its piece count — the property that
//     makes the anytime tier cuttable at any partition boundary;
//   - accuracy accounting: SamplesUsed must respect the budget, the Cut
//     flag must reflect whether the budget truncated the run, and the
//     reported ρ must equal the Lemma 5.10 inversion for the samples
//     actually consumed, non-increasing along the ladder;
//   - ρ-bound honesty: on the full run, the fraction of margin-guarded
//     qualified samples the region fails to cover must stay within the
//     reported ρ bound (plus sampling slack) — the empirical form of the
//     Lemma 5.10 claim that qualified regions of volume ratio ≥ ρ are
//     covered with probability 1 − δ.
//
// Seeds are pure functions of the config, so a violation is a determinate
// counterexample, not sampling luck.

import (
	"context"
	"fmt"

	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
)

// AnytimeReport is the outcome of an anytime differential run.
type AnytimeReport struct {
	// Problems is the number of corpus problems checked.
	Problems int
	// Cuts counts the (problem, budget) prefixes constructed.
	Cuts int
	// SampleChecks counts individual margin-guarded membership assertions.
	SampleChecks int
	// AccuracyChecks counts accuracy-contract assertions (budget respected,
	// ρ inversion, Cut flag, ρ honesty).
	AccuracyChecks int
	// SolveSkipped counts problems abandoned because a construction failed
	// outright; the error is reported as a mismatch.
	SolveSkipped int
	// Mismatches holds every disagreement.
	Mismatches []Mismatch
}

func (rep *AnytimeReport) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

// RunAnytime executes the anytime differential harness over the same corpus
// enumeration as Run. Like Run it never panics on a mismatch; callers (the
// test suite, the CI sweep) decide how to fail.
func RunAnytime(cfg Config) AnytimeReport {
	cfg = cfg.withDefaults()
	var rep AnytimeReport
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		rep.Problems++
		checkAnytimeProblem(cfg, ins, int64(i), &rep)
	}
	return rep
}

// anytimeCutLadder returns the deterministic sample budgets a problem is
// cut at: quarters of the full run, deduplicated and ascending, ending at
// the full sample count (which must run uncut).
func anytimeCutLadder(n int) []int {
	var cuts []int
	for _, c := range []int{n / 4, n / 2, 3 * n / 4, n} {
		if c < 1 {
			c = 1
		}
		if len(cuts) > 0 && c <= cuts[len(cuts)-1] {
			continue
		}
		cuts = append(cuts, c)
	}
	return cuts
}

// checkAnytimeProblem cuts the construction at each ladder budget and
// applies the prefix checks.
func checkAnytimeProblem(cfg Config, ins corpus.Instance, ordinal int64, rep *AnytimeReport) {
	ctx := context.Background()
	d := ins.Q.Dim()
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)
	oracle := newPlaneOracle(ins.Pts, q)
	samples := sampleGrid(d, cfg.Seed^(ordinal*104729+29), cfg.RandSamples)
	seed := cfg.Seed + ordinal

	prep, err := core.Prepare(ins.Pts, d, false)
	if err != nil {
		rep.SolveSkipped++
		rep.fail(Mismatch{Kind: "anytime-error", Solver: "A-PC-anytime", Problem: prob, Detail: err.Error()})
		return
	}

	n := cfg.APCSamples
	cuts := anytimeCutLadder(n)
	var prev *core.Region
	var prevPieces, prevCut int
	var prevRho float64
	for _, cut := range cuts {
		opt := core.APCOptions{Samples: n, Seed: seed, MaxSamples: cut}
		region, st, err := core.APCSolver{Opt: opt}.Solve(ctx, prep, q)
		if err != nil {
			rep.SolveSkipped++
			rep.fail(Mismatch{Kind: "anytime-error", Solver: "A-PC-anytime", Problem: prob,
				Detail: fmt.Sprintf("cut %d: %v", cut, err)})
			return
		}
		rep.Cuts++
		acc := core.AccuracyOf(region, st, q, opt)

		// Accuracy accounting: the budget is a hard ceiling, the Cut flag
		// tells truncated prefixes from the natural end of the stream, and
		// ρ is the Lemma 5.10 inversion for the consumed samples.
		rep.AccuracyChecks += 3
		if acc.SamplesUsed > cut {
			rep.fail(Mismatch{Kind: "anytime-accuracy", Solver: "A-PC-anytime", Problem: prob,
				Detail: fmt.Sprintf("budget %d but %d samples consumed", cut, acc.SamplesUsed)})
		}
		if wantCut := cut < n; acc.Cut != wantCut {
			rep.fail(Mismatch{Kind: "anytime-accuracy", Solver: "A-PC-anytime", Problem: prob,
				Detail: fmt.Sprintf("budget %d of %d: Cut=%v, want %v", cut, n, acc.Cut, wantCut)})
		}
		if want := core.RhoFor(acc.SamplesUsed, acc.Delta, d); acc.RhoBound != want {
			rep.fail(Mismatch{Kind: "anytime-accuracy", Solver: "A-PC-anytime", Problem: prob,
				Detail: fmt.Sprintf("ρ=%v for %d samples, want RhoFor=%v", acc.RhoBound, acc.SamplesUsed, want)})
		}
		if prev != nil {
			rep.AccuracyChecks++
			if acc.RhoBound > prevRho {
				rep.fail(Mismatch{Kind: "anytime-accuracy", Solver: "A-PC-anytime", Problem: prob,
					Detail: fmt.Sprintf("ρ grew from %v (budget %d) to %v (budget %d)", prevRho, prevCut, acc.RhoBound, cut)})
			}
		}

		// Soundness of the prefix: one-sided A-PC guarantee on the grid.
		for _, u := range samples {
			want, margin := oracle.qualified(u)
			if margin < cfg.Margin {
				continue
			}
			rep.SampleChecks++
			if region.Contains(u) && !want {
				rep.fail(Mismatch{Kind: "anytime-soundness", Solver: "A-PC-anytime", Problem: prob, U: u,
					Detail: fmt.Sprintf("cut at %d samples contains unqualified preference (margin %.3g)", cut, margin)})
			}
		}

		// Monotonicity across consecutive cuts: membership and piece count.
		if prev != nil {
			rep.AccuracyChecks++
			if region.NumPieces() < prevPieces {
				rep.fail(Mismatch{Kind: "anytime-monotone", Solver: "A-PC-anytime", Problem: prob,
					Detail: fmt.Sprintf("pieces shrank from %d (budget %d) to %d (budget %d)",
						prevPieces, prevCut, region.NumPieces(), cut)})
			}
			for _, u := range samples {
				if _, margin := oracle.qualified(u); margin < cfg.Margin {
					continue
				}
				rep.SampleChecks++
				if prev.Contains(u) && !region.Contains(u) {
					rep.fail(Mismatch{Kind: "anytime-monotone", Solver: "A-PC-anytime", Problem: prob, U: u,
						Detail: fmt.Sprintf("member at budget %d lost at budget %d", prevCut, cut)})
				}
			}
		}
		prev, prevPieces, prevCut, prevRho = region, region.NumPieces(), cut, acc.RhoBound

		// ρ-bound honesty on the full run: the uncovered qualified fraction
		// of the margin-guarded grid must stay within the reported bound.
		// The grid is itself a sample, so allow its own estimation slack on
		// top of ρ before declaring a violation.
		if cut == n {
			qualified, uncovered := 0, 0
			total := 0
			for _, u := range samples {
				want, margin := oracle.qualified(u)
				if margin < cfg.Margin {
					continue
				}
				total++
				if want {
					qualified++
					if !region.Contains(u) {
						uncovered++
					}
				}
			}
			if total > 0 {
				rep.AccuracyChecks++
				frac := float64(uncovered) / float64(total)
				slack := 2.0 / float64(total) // a couple of grid points of noise
				if frac > acc.RhoBound+slack {
					rep.fail(Mismatch{Kind: "anytime-rho", Solver: "A-PC-anytime", Problem: prob,
						Detail: fmt.Sprintf("uncovered qualified fraction %.4f (%d/%d) exceeds ρ=%.4f",
							frac, uncovered, total, acc.RhoBound)})
				}
			}
		}
	}
}

package diffcheck

// Index differential harness: the snapshot index must be invisible in the
// answers. For every corpus problem, a solve served from an index snapshot
// (maintained skyband prefilter) must be byte-identical — same JSON
// encoding, not merely same membership — to a from-scratch solve
// over the k-skyband, both before and after every step of an interleaved
// Insert/Delete stream mirrored against plain-slice bookkeeping. The
// from-scratch side is E-PT on an unfiltered Prepare of the band the
// quadratic skyband.DominatorCount oracle selects, so the reference shares
// no band or plane-store code with the index's Prepared.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/index"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// IndexReport is the outcome of an index differential run.
type IndexReport struct {
	// Problems is the number of corpus problems checked.
	Problems int
	// Solves is the number of index-served/from-scratch solve pairs compared.
	Solves int
	// Mutations is the number of Insert/Delete steps applied across all
	// problems (each is followed by a fresh comparison).
	Mutations int
	// Mismatches holds every disagreement, including maintenance errors.
	Mismatches []Mismatch
}

// MutationsPerProblem is the length of the interleaved Insert/Delete stream
// applied to every corpus problem in RunIndex.
const MutationsPerProblem = 6

// RunIndex executes the index differential harness over the same corpus
// enumeration as Run and returns its report. Like Run it never panics on a
// mismatch; callers decide how to fail.
func RunIndex(cfg Config) IndexReport {
	cfg = cfg.withDefaults()
	var rep IndexReport
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		rep.Problems++
		checkIndexProblem(cfg, ins, int64(i), &rep)
	}
	return rep
}

// checkIndexProblem builds an index over one instance, compares the
// index-served answer with the from-scratch answer, then replays a
// deterministic interleaved mutation stream — deletions, duplicate
// insertions, fresh insertions — re-comparing after every step.
func checkIndexProblem(cfg Config, ins corpus.Instance, ordinal int64, rep *IndexReport) {
	d := ins.Q.Dim()
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)

	ix, err := index.Build(ins.Pts, d)
	if err != nil {
		rep.fail(Mismatch{Kind: "index-build-error", Problem: prob, Detail: err.Error()})
		return
	}
	cur := append([]vec.Vec(nil), ins.Pts...)
	if !compareIndexSolve(ix, cur, q, prob, "initial", rep) {
		return
	}

	rng := rand.New(rand.NewSource(cfg.Seed ^ (ordinal*65537 + 17)))
	for op := 0; op < MutationsPerProblem; op++ {
		var step string
		switch {
		case rng.Intn(3) == 0 && len(cur) > 3:
			i := rng.Intn(len(cur))
			step = fmt.Sprintf("op %d: delete %d", op, i)
			if _, err := ix.Delete(i); err != nil {
				rep.fail(Mismatch{Kind: "index-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				return
			}
			cur = append(cur[:i], cur[i+1:]...)
		case rng.Intn(2) == 0:
			// Duplicate insertion: ties at the k-th rank are exactly where
			// delta maintenance can silently drift.
			p := cur[rng.Intn(len(cur))].Clone()
			step = fmt.Sprintf("op %d: insert duplicate", op)
			if _, err := ix.Insert(p); err != nil {
				rep.fail(Mismatch{Kind: "index-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				return
			}
			cur = append(cur, p)
		default:
			p := vec.New(d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			step = fmt.Sprintf("op %d: insert fresh", op)
			if _, err := ix.Insert(p); err != nil {
				rep.fail(Mismatch{Kind: "index-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				return
			}
			cur = append(cur, p)
		}
		rep.Mutations++
		if !compareIndexSolve(ix, cur, q, prob, step, rep) {
			return
		}
	}
}

// compareIndexSolve solves q once through the index's current snapshot and
// once from scratch over the mirrored points, and requires byte-identical
// region encodings. Returns false when the problem should be abandoned.
func compareIndexSolve(ix *index.Index, cur []vec.Vec, q core.Query, prob Problem, step string, rep *IndexReport) bool {
	rep.Solves++
	got, gotErr := regionBytes(ix.Snapshot().Prepared(), q)
	want, wantErr := referenceBytes(cur, q, true)
	if (gotErr == nil) != (wantErr == nil) {
		rep.fail(Mismatch{Kind: "index-divergence", Problem: prob,
			Detail: fmt.Sprintf("%s: error mismatch: index=%v fresh=%v", step, gotErr, wantErr)})
		return false
	}
	if gotErr != nil {
		return true // both failed identically; nothing to compare
	}
	if !bytes.Equal(got, want) {
		rep.fail(Mismatch{Kind: "index-divergence", Problem: prob,
			Detail: fmt.Sprintf("%s: index-served region differs from fresh solve\n got: %s\nwant: %s", step, got, want)})
		return false
	}
	return true
}

// regionBytes answers q over prep with the exact general-dimension solver and
// returns the region's canonical JSON encoding.
func regionBytes(prep *core.Prepared, q core.Query) ([]byte, error) {
	r, _, err := (core.EPTSolver{}).Solve(context.Background(), prep, q)
	if err != nil {
		return nil, err
	}
	return r.MarshalJSON()
}

// referenceBytes is regionBytes computed independently of the Prepared's
// band and plane-store machinery: E-PT on a fresh unfiltered Prepare of
// the points — restricted, when prefilter is set, to their k-skyband as the
// quadratic skyband.DominatorCount oracle selects it, so the sweep never
// checks the counting primitive against itself — with planes built per
// call.
func referenceBytes(pts []vec.Vec, q core.Query, prefilter bool) ([]byte, error) {
	if prefilter {
		var band []vec.Vec
		for i, c := range skyband.DominatorCount(pts) {
			if c < q.K {
				band = append(band, pts[i])
			}
		}
		pts = band
	}
	r, err := solveEPT(context.Background(), pts, q)
	if err != nil {
		return nil, err
	}
	return r.MarshalJSON()
}

// solveEPT answers q over pts with E-PT on a fresh, unfiltered Prepare.
func solveEPT(ctx context.Context, pts []vec.Vec, q core.Query) (*core.Region, error) {
	prep, err := core.Prepare(pts, q.Q.Dim(), false)
	if err != nil {
		return nil, err
	}
	r, _, err := core.EPTSolver{}.Solve(ctx, prep, q)
	return r, err
}

func (rep *IndexReport) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

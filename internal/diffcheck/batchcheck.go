package diffcheck

// Batch-sharing differential harness: the batch engine's cross-query
// sharing (shared skyband substrate, per-(point, ε) plane groups, duplicate
// collapse, clustered dispatch, worker arenas) must be invisible in the
// answers. For every corpus problem, a mixed-(k, ε) batch with exact
// duplicates solved through SolveBatchOptions with sharing on must be
// byte-identical — same JSON encoding, not merely same membership — to
// independent per-query solves, with the prefilter both on and off, and
// with batches served from an index snapshot between interleaved
// Insert/Delete mutations.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/index"
	"rrq/internal/vec"
)

// BatchReport is the outcome of a batch-sharing differential run.
type BatchReport struct {
	// Problems is the number of corpus problems checked.
	Problems int
	// Batches is the number of shared-batch dispatches compared.
	Batches int
	// Queries is the total number of per-query byte comparisons.
	Queries int
	// Mutations is the number of index Insert/Delete steps applied between
	// index-served batches.
	Mutations int
	// Mismatches holds every disagreement.
	Mismatches []Mismatch
}

// BatchMutations is the length of the interleaved mutation stream applied
// between index-served batches per corpus problem.
const BatchMutations = 3

// RunBatchShared executes the batch-sharing differential harness over the
// same corpus enumeration as Run and RunIndex. Like them it never panics on
// a mismatch; callers decide how to fail.
func RunBatchShared(cfg Config) BatchReport {
	cfg = cfg.withDefaults()
	var rep BatchReport
	dims := []int{2, 3, 4, 5, 6}
	for i := 0; i < cfg.Problems; i++ {
		fam := byte(i % corpus.NumFamilies)
		dim := dims[(i/corpus.NumFamilies)%len(dims)]
		data := corpus.Encode(fam, dim, 3+i%10, 1+i%4, i%7, cfg.Seed+int64(i)*7919)
		ins, ok := corpus.DecodeDim(data, dim)
		if !ok {
			continue
		}
		rep.Problems++
		checkBatchProblem(cfg, ins, int64(i), &rep)
	}
	return rep
}

// batchVariants derives a mixed batch from one corpus instance: the
// instance query at neighbouring ranks and ε values (nested and disjoint
// plane groups), a second query point, and exact duplicates so the dedup
// path runs on every problem.
func batchVariants(ins corpus.Instance, rng *rand.Rand) []core.Query {
	base := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	out := []core.Query{base}
	for _, dk := range []int{-1, 1, 2} {
		if k := ins.K + dk; k >= 1 {
			out = append(out, core.Query{Q: ins.Q, K: k, Eps: ins.Eps})
		}
	}
	out = append(out, core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps / 2})
	// A distinct query point: a perturbed copy clamped to the open domain.
	p2 := ins.Q.Clone()
	for j := range p2 {
		p2[j] = clamp01(p2[j] + (rng.Float64()-0.5)*0.1)
	}
	out = append(out, core.Query{Q: p2, K: ins.K, Eps: ins.Eps})
	// Exact duplicates of the first and last distinct queries.
	out = append(out, out[0], out[len(out)-1])
	return out
}

func clamp01(x float64) float64 {
	if x < 0.01 {
		return 0.01
	}
	if x > 1 {
		return 1
	}
	return x
}

// checkBatchProblem compares shared-batch solves against independent
// per-query solves on fresh Prepareds (prefilter on and off), then against
// an index snapshot's Prepared with mutations interleaved between batches.
func checkBatchProblem(cfg Config, ins corpus.Instance, ordinal int64, rep *BatchReport) {
	d := ins.Q.Dim()
	rng := rand.New(rand.NewSource(cfg.Seed ^ (ordinal*48611 + 7)))
	queries := batchVariants(ins, rng)
	prob := newProblem(ins)

	for _, prefilter := range []bool{true, false} {
		prep, err := core.Prepare(ins.Pts, d, prefilter)
		if err != nil {
			rep.fail(Mismatch{Kind: "batch-prepare-error", Problem: prob, Detail: err.Error()})
			return
		}
		step := fmt.Sprintf("prefilter=%v", prefilter)
		if !compareBatchSolve(prep, queries, prob, step, rep) {
			return
		}
	}

	// Index-served batches with interleaved mutations: the snapshot path
	// bypasses the batch plane store (its own storage already deduplicates)
	// but still runs under dedup, clustering and worker arenas.
	ix, err := index.Build(ins.Pts, d)
	if err != nil {
		rep.fail(Mismatch{Kind: "batch-index-build-error", Problem: prob, Detail: err.Error()})
		return
	}
	cur := append([]vec.Vec(nil), ins.Pts...)
	if !compareBatchIndex(ix, cur, d, queries, prob, "index initial", rep) {
		return
	}
	for op := 0; op < BatchMutations; op++ {
		var step string
		if rng.Intn(2) == 0 && len(cur) > 3 {
			i := rng.Intn(len(cur))
			step = fmt.Sprintf("index op %d: delete %d", op, i)
			if _, err := ix.Delete(i); err != nil {
				rep.fail(Mismatch{Kind: "batch-index-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				return
			}
			cur = append(cur[:i], cur[i+1:]...)
		} else {
			p := vec.New(d)
			for j := range p {
				p[j] = 0.05 + 0.95*rng.Float64()
			}
			step = fmt.Sprintf("index op %d: insert", op)
			if _, err := ix.Insert(p); err != nil {
				rep.fail(Mismatch{Kind: "batch-index-maintain-error", Problem: prob, Detail: step + ": " + err.Error()})
				return
			}
			cur = append(cur, p)
		}
		rep.Mutations++
		if !compareBatchIndex(ix, cur, d, queries, prob, step, rep) {
			return
		}
	}
}

// compareBatchIndex runs the shared batch over the index snapshot's
// Prepared and compares every slot against an independent solve on a fresh
// prefiltered Prepared over the mirrored points.
func compareBatchIndex(ix *index.Index, cur []vec.Vec, d int, queries []core.Query, prob Problem, step string, rep *BatchReport) bool {
	fresh, err := core.Prepare(cur, d, true)
	if err != nil {
		rep.fail(Mismatch{Kind: "batch-index-divergence", Problem: prob, Detail: step + ": fresh prepare failed: " + err.Error()})
		return false
	}
	return compareBatchAgainst(ix.Snapshot().Prepared(nil), fresh, queries, prob, step, rep)
}

// compareBatchSolve compares the shared batch against independent solves on
// the same Prepared.
func compareBatchSolve(prep *core.Prepared, queries []core.Query, prob Problem, step string, rep *BatchReport) bool {
	return compareBatchAgainst(prep, prep, queries, prob, step, rep)
}

// compareBatchAgainst dispatches queries through SolveBatchOptions with
// sharing, dedup and multiple workers over batchPrep, and requires every
// slot to match a plain independent solve over wantPrep byte-for-byte
// (errors must agree too).
func compareBatchAgainst(batchPrep, wantPrep *core.Prepared, queries []core.Query, prob Problem, step string, rep *BatchReport) bool {
	rep.Batches++
	solver := core.EPTSolver{}
	outs := core.SolveBatchOptions(context.Background(), core.SolvePolicy{Solver: solver}, batchPrep, queries,
		core.BatchOptions{Workers: 3, Share: true, Dedup: true})
	ok := true
	for i, o := range outs {
		rep.Queries++
		want, _, wantErr := solver.Solve(context.Background(), wantPrep, queries[i])
		if (o.Err == nil) != (wantErr == nil) {
			rep.fail(Mismatch{Kind: "batch-divergence", Problem: prob,
				Detail: fmt.Sprintf("%s query %d: error mismatch: batch=%v independent=%v", step, i, o.Err, wantErr)})
			ok = false
			continue
		}
		if o.Err != nil {
			continue // both failed identically
		}
		got, err := o.Region.MarshalJSON()
		if err != nil {
			rep.fail(Mismatch{Kind: "batch-divergence", Problem: prob,
				Detail: fmt.Sprintf("%s query %d: marshal batch region: %v", step, i, err)})
			ok = false
			continue
		}
		wb, err := want.MarshalJSON()
		if err != nil {
			rep.fail(Mismatch{Kind: "batch-divergence", Problem: prob,
				Detail: fmt.Sprintf("%s query %d: marshal independent region: %v", step, i, err)})
			ok = false
			continue
		}
		if !bytes.Equal(got, wb) {
			rep.fail(Mismatch{Kind: "batch-divergence", Problem: prob,
				Detail: fmt.Sprintf("%s query %d (k=%d eps=%g): shared batch region differs from independent solve\n got: %s\nwant: %s",
					step, i, queries[i].K, queries[i].Eps, got, wb)})
			ok = false
		}
	}
	return ok
}

func (rep *BatchReport) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

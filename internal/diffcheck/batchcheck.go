package diffcheck

// Batch-sharing differential harness: the batch engine's cross-query
// sharing (shared skyband bands, the per-(point, ε) plane store, duplicate
// collapse, clustered dispatch) must be invisible in the
// answers. For every corpus problem, a mixed-(k, ε) batch with exact
// duplicates solved through SolveBatchPolicy must be byte-identical — same
// JSON encoding, not merely same membership — to independent per-query
// solves, with the prefilter both on and off, and with batches served from
// an index snapshot between interleaved Insert/Delete mutations. The
// independent side is E-PT on an unfiltered Prepare of the oracle's
// k-skyband (see referenceBytes), so it shares no band or plane-store code
// with the batch's Prepared.

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
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
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

// checkBatchProblem compares shared-batch solves on fresh Prepareds
// (prefilter on and off), then on an index snapshot's Prepared with
// mutations interleaved between batches, against independent reference
// solves over the same points.
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
		if !compareBatchAgainst(prep, ins.Pts, prefilter, queries, prob, step, rep) {
			return
		}
	}

	// Index-served batches with interleaved mutations: the snapshot's own
	// plane store serves the batch (and persists across batches of one
	// epoch) under dedup and clustering.
	ix, err := index.Build(ins.Pts, d)
	if err != nil {
		rep.fail(Mismatch{Kind: "batch-index-build-error", Problem: prob, Detail: err.Error()})
		return
	}
	cur := append([]vec.Vec(nil), ins.Pts...)
	if !compareBatchAgainst(ix.Snapshot().Prepared(), cur, true, queries, prob, "index initial", rep) {
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
		if !compareBatchAgainst(ix.Snapshot().Prepared(), cur, true, queries, prob, step, rep) {
			return
		}
	}
}

// compareBatchAgainst dispatches queries through SolveBatchPolicy with
// multiple workers over batchPrep, and requires every slot to match the
// independent reference over pts (referenceBytes) byte-for-byte (errors
// must agree too).
func compareBatchAgainst(batchPrep *core.Prepared, pts []vec.Vec, prefilter bool, queries []core.Query, prob Problem, step string, rep *BatchReport) bool {
	rep.Batches++
	outs := core.SolveBatchPolicy(context.Background(), core.SolvePolicy{Solver: core.EPTSolver{}}, batchPrep, queries, 3)
	ok := true
	for i, o := range outs {
		rep.Queries++
		wb, wantErr := referenceBytes(pts, queries[i], prefilter)
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

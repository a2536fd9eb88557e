// Package diffcheck is the standing differential + metamorphic correctness
// harness for the reverse regret query solver stack. It generates
// adversarially degenerate problems (see internal/diffcheck/corpus), runs
// every solver on each, and checks:
//
//   - membership equivalence: every exact solver's region must agree with
//     the Lemma 3.5 counting oracle on a dense simplex sample grid; the
//     approximate A-PC must never contain an unqualified preference;
//   - LP audits: every returned cell must be feasible as a linear program
//     over the simplex (internal/lp is the independent oracle) and its LP
//     witness and center must be qualified;
//   - representative completeness: the centers of the brute-force ground
//     truth's partitions must be contained in every exact solver's region,
//     in the spirit of top-k depth-contour equivalence checks;
//   - metamorphic invariants: point-permutation invariance, region
//     monotonicity in ε and in k, and exact ε = 0 equivalence with the
//     public reverse top-k operator.
//
// Samples within the margin of a decision boundary are skipped (the
// answers there are representation noise by the documented numerical
// policy); margins are measured against unit plane normals so the skip is
// scale-free. Every surviving disagreement is minimized by greedy point
// deletion and reported with a JSON reproduction dump.
package diffcheck

import (
	"context"
	"fmt"

	"rrq"
	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

// Config parameterizes one harness run. The zero value is usable: every
// field has a default.
type Config struct {
	// Seed drives problem generation and sampling. Runs are pure functions
	// of the config, so differential runs are replayable.
	Seed int64
	// Problems is the number of generated problems (default 208). Families
	// and dimensions are cycled, so any count ≥ 40 covers every
	// family × dimension pair.
	Problems int
	// RandSamples is the number of random interior samples added to the
	// deterministic lattice grid per problem (default 48).
	RandSamples int
	// Margin is the boundary-skip threshold on unit-normal margins
	// (default 1e-7, the documented numerical policy).
	Margin float64
	// APCSamples is the A-PC sample count per problem (default 120).
	APCSamples int
	// PBAMaxDim bounds the dimensions on which the PBA+ baseline runs
	// (default 4): its preprocessing materializes the rank arrangement and
	// is the cost the paper reports as prohibitive.
	PBAMaxDim int
	// PBAMaxNodes is the PBA+ preprocessing budget (default 30000).
	// Instances exceeding it are skipped and counted in Report.PBASkipped —
	// a visible cap, not a silent one.
	PBAMaxNodes int
}

func (c Config) withDefaults() Config {
	if c.Problems <= 0 {
		c.Problems = 208
	}
	if c.RandSamples <= 0 {
		c.RandSamples = 48
	}
	if c.Margin <= 0 {
		c.Margin = 1e-7
	}
	if c.APCSamples <= 0 {
		c.APCSamples = 120
	}
	if c.PBAMaxDim <= 0 {
		c.PBAMaxDim = 4
	}
	if c.PBAMaxNodes <= 0 {
		c.PBAMaxNodes = 30000
	}
	return c
}

// Report is the outcome of a harness run.
type Report struct {
	// Problems is the number of problems generated and checked.
	Problems int
	// Checks is the total number of individual assertions evaluated
	// (membership comparisons, LP audits, invariant checks).
	Checks int
	// PerFamily counts problems per degenerate family.
	PerFamily map[string]int
	// SolverRuns counts completed solves per solver name.
	SolverRuns map[string]int
	// PBASkipped counts problems on which PBA+ was skipped (dimension bound
	// or preprocessing budget).
	PBASkipped int
	// Mismatches holds every surviving disagreement, minimized.
	Mismatches []Mismatch
}

// solverRun is one solver's answer to one problem.
type solverRun struct {
	name   string
	exact  bool
	region *core.Region
}

// Run executes the harness and returns its report. It never panics on a
// mismatch; callers (the test suite, the CI job) decide how to fail.
func Run(cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{
		PerFamily:  make(map[string]int),
		SolverRuns: make(map[string]int),
	}
	for i := 0; i < cfg.Problems; i++ {
		ins, ok := instance(cfg, i)
		if !ok {
			continue
		}
		rep.Problems++
		rep.PerFamily[ins.Family]++
		checkProblem(cfg, ins, int64(i), &rep)
	}
	return rep
}

// instance is the i-th problem of the corpus enumeration every sweep
// walks: families cycle fastest, then dimensions 2–6, with the size, rank,
// ε and seed all derived from i. ok is false for an encoding that does not
// decode; the sweeps skip it.
func instance(cfg Config, i int) (ins corpus.Instance, ok bool) {
	dims := []int{2, 3, 4, 5, 6}
	fam := byte(i % corpus.NumFamilies)
	dim := dims[(i/corpus.NumFamilies)%len(dims)]
	data := corpus.Encode(fam, dim, 3+i%10, 1+i%4, i%7, cfg.Seed+int64(i)*7919)
	return corpus.DecodeDim(data, dim)
}

// checkProblem runs every applicable solver on one instance and applies the
// full check battery.
func checkProblem(cfg Config, ins corpus.Instance, ordinal int64, rep *Report) {
	ctx := context.Background()
	d := ins.Q.Dim()
	q := core.Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
	prob := newProblem(ins)
	prep, err := core.Prepare(ins.Pts, d, false)
	if err != nil {
		rep.fail(Mismatch{Kind: "prepare-error", Problem: prob, Detail: err.Error()})
		return
	}

	oracle := newPlaneOracle(ins.Pts, q)
	samples := sampleGrid(d, cfg.Seed^(ordinal*104729), cfg.RandSamples)

	// The two oracle formulations — classified planes vs raw utility
	// differences (core.CountBetter) — must agree away from boundaries.
	for _, u := range samples {
		c1, m1 := oracle.count(u)
		c2, m2 := core.CountBetter(ins.Pts, q, u)
		rep.Checks++
		if m1 >= cfg.Margin && m2 >= cfg.Margin && c1 != c2 {
			rep.fail(Mismatch{
				Kind: "oracle-divergence", Problem: prob, U: u,
				Detail: fmt.Sprintf("plane oracle counts %d, CountBetter counts %d", c1, c2),
			})
		}
	}

	runs := runSolvers(ctx, cfg, prep, q, ordinal, rep, prob)

	// Membership equivalence on the sample grid.
	for _, r := range runs {
		solveMembership(cfg, ins, q, oracle, r, samples, rep)
	}

	// LP audits of every exact region's representation.
	for _, r := range runs {
		if r.exact {
			auditRegion(cfg, oracle, r, prob, rep)
		}
	}

	// Representative completeness: ground-truth partition centers must be in
	// every exact region.
	completenessCheck(cfg, oracle, runs, prob, rep)

	// Metamorphic invariants, all driven through E-PT (the exact
	// general-dimension solver).
	metamorphicChecks(ctx, cfg, ins, prep, q, oracle, ordinal, rep, prob)
}

// runSolvers answers the problem with every applicable solver: the four
// exact engines (Sweeping when d = 2, E-PT, brute force, LP-CTA), the PBA+
// index within its dimension/budget bounds, and the approximate A-PC.
func runSolvers(ctx context.Context, cfg Config, prep *core.Prepared, q core.Query, ordinal int64, rep *Report, prob Problem) []solverRun {
	d := prep.Dim()
	type entry struct {
		solver core.Solver
		exact  bool
	}
	entries := []entry{
		{core.EPTSolver{}, true},
		{core.BruteForceSolver{MaxPlanes: 64}, true},
		{baseline.LPCTASolver{}, true},
		{core.APCSolver{Opt: core.APCOptions{Samples: cfg.APCSamples, Seed: cfg.Seed + ordinal}}, false},
	}
	if d == 2 {
		entries = append(entries, entry{core.SweepingSolver{}, true})
	}
	var runs []solverRun
	for _, e := range entries {
		region, _, err := e.solver.Solve(ctx, prep, q)
		if err != nil {
			rep.fail(Mismatch{Kind: "solver-error", Solver: e.solver.Name(), Problem: prob, Detail: err.Error()})
			continue
		}
		rep.SolverRuns[e.solver.Name()]++
		runs = append(runs, solverRun{name: e.solver.Name(), exact: e.exact, region: region})
	}
	if d <= cfg.PBAMaxDim {
		if region, ok := runPBA(ctx, cfg, prep, q, rep, prob); ok {
			rep.SolverRuns["PBA+"]++
			runs = append(runs, solverRun{name: "PBA+", exact: true, region: region})
		}
	} else {
		rep.PBASkipped++
	}
	return runs
}

// runPBA builds a fresh PBA+ index for the problem's k and queries it. A
// blown preprocessing budget is a skip (counted), not a failure: the paper
// itself reports PBA+ preprocessing as prohibitive at scale.
func runPBA(ctx context.Context, cfg Config, prep *core.Prepared, q core.Query, rep *Report, prob Problem) (*core.Region, bool) {
	ix, err := baseline.BuildPBAContext(ctx, prep.Points(), q.K, cfg.PBAMaxNodes)
	if err != nil {
		if err == baseline.ErrPBABudget {
			rep.PBASkipped++
			return nil, false
		}
		rep.fail(Mismatch{Kind: "solver-error", Solver: "PBA+", Problem: prob, Detail: err.Error()})
		return nil, false
	}
	region, err := ix.QueryContext(ctx, q)
	if err != nil {
		rep.fail(Mismatch{Kind: "solver-error", Solver: "PBA+", Problem: prob, Detail: err.Error()})
		return nil, false
	}
	return region, true
}

// solveMembership compares one region's membership against the oracle on
// the sample grid. Exact solvers must match in both directions; A-PC must
// never claim an unqualified sample (it may under-report).
func solveMembership(cfg Config, ins corpus.Instance, q core.Query, oracle *planeOracle, r solverRun, samples []vec.Vec, rep *Report) {
	for _, u := range samples {
		want, margin := oracle.qualified(u)
		if margin < cfg.Margin {
			continue
		}
		rep.Checks++
		got := r.region.Contains(u)
		if got == want || (!r.exact && !got) {
			continue
		}
		mm := Mismatch{
			Kind: "membership", Solver: r.name, Problem: newProblem(ins), U: u,
			Detail: fmt.Sprintf("solver=%v oracle=%v (count boundary margin %.3g)", got, want, margin),
		}
		mm.Problem.Pts = minimizeMembership(ins, q, r.name, u, cfg)
		rep.fail(mm)
	}
}

// auditRegion applies the LP audit to every cell of a cell-backed region,
// and the interval audit (piece midpoints qualified, gap midpoints not) to
// 2-d interval regions.
func auditRegion(cfg Config, oracle *planeOracle, r solverRun, prob Problem, rep *Report) {
	if cells := r.region.Cells(); cells != nil {
		for _, c := range cells {
			rep.Checks++
			if msg := lpAuditCell(oracle, c, cfg.Margin); msg != "" {
				rep.fail(Mismatch{Kind: "lp-audit", Solver: r.name, Problem: prob, U: c.Center(), Detail: msg})
			}
		}
		return
	}
	if r.region.Dim() != 2 {
		return
	}
	ivs := r.region.Intervals()
	prev := 0.0
	for i, iv := range ivs {
		mid := (iv[0] + iv[1]) / 2
		u := vec.Of(mid, 1-mid)
		rep.Checks++
		if ok, m := oracle.qualified(u); m >= cfg.Margin && !ok {
			rep.fail(Mismatch{Kind: "lp-audit", Solver: r.name, Problem: prob, U: u, Detail: "interval midpoint unqualified"})
		}
		if gap := iv[0] - prev; gap > 4*cfg.Margin {
			gm := prev + gap/2
			gu := vec.Of(gm, 1-gm)
			rep.Checks++
			if ok, m := oracle.qualified(gu); m >= cfg.Margin && ok {
				rep.fail(Mismatch{Kind: "lp-audit", Solver: r.name, Problem: prob, U: gu, Detail: "gap midpoint qualified but not covered"})
			}
		}
		prev = iv[1]
		_ = i
	}
}

// completenessCheck takes the brute-force answer as the ground-truth
// partition of the qualified region and verifies that a representative
// interior point of each of its pieces is contained in every other exact
// solver's region — a contour-equivalence check that does not depend on
// sampling luck.
func completenessCheck(cfg Config, oracle *planeOracle, runs []solverRun, prob Problem, rep *Report) {
	var truth *solverRun
	for i := range runs {
		if runs[i].name == "BruteForce" {
			truth = &runs[i]
		}
	}
	if truth == nil {
		return
	}
	var reps []vec.Vec
	if cells := truth.region.Cells(); cells != nil {
		for _, c := range cells {
			reps = append(reps, c.Center())
		}
	} else if truth.region.Dim() == 2 {
		for _, iv := range truth.region.Intervals() {
			mid := (iv[0] + iv[1]) / 2
			reps = append(reps, vec.Of(mid, 1-mid))
		}
	}
	for _, u := range reps {
		ok, m := oracle.qualified(u)
		if m < cfg.Margin || !ok {
			continue // boundary-thin piece: representation noise
		}
		for _, r := range runs {
			if !r.exact || r.name == truth.name {
				continue
			}
			rep.Checks++
			if !r.region.Contains(u) {
				rep.fail(Mismatch{
					Kind: "completeness", Solver: r.name, Problem: prob, U: u,
					Detail: "ground-truth partition center missing from region",
				})
			}
		}
	}
}

// metamorphicChecks verifies the harness's four metamorphic invariants on
// the E-PT answer over prep, the instance's Prepared.
func metamorphicChecks(ctx context.Context, cfg Config, ins corpus.Instance, prep *core.Prepared, q core.Query, oracle *planeOracle, ordinal int64, rep *Report, prob Problem) {
	samples := sampleGrid(ins.Q.Dim(), cfg.Seed^(ordinal*7561+13), cfg.RandSamples)
	ept := core.EPTSolver{}
	base, _, err := ept.Solve(ctx, prep, q)
	if err != nil {
		return // already reported by runSolvers
	}

	// Point-permutation invariance: the answer is a set property of the
	// dataset; reordering the points must not change membership.
	perm := permutedPoints(ins.Pts, cfg.Seed+ordinal)
	if permReg, err := solveEPT(ctx, perm, q); err == nil {
		for _, u := range samples {
			if _, m := oracle.qualified(u); m < cfg.Margin {
				continue
			}
			rep.Checks++
			if base.Contains(u) != permReg.Contains(u) {
				rep.fail(Mismatch{Kind: "invariant-permutation", Solver: "E-PT", Problem: prob, U: u,
					Detail: "membership changed under point permutation"})
			}
		}
	}

	// Monotonicity in ε: raising the threshold can only grow the region.
	if eps2 := q.Eps + 0.15; eps2 < 0.95 {
		q2 := q
		q2.Eps = eps2
		oracle2 := newPlaneOracle(ins.Pts, q2)
		if reg2, _, err := ept.Solve(ctx, prep, q2); err == nil {
			for _, u := range samples {
				_, m1 := oracle.qualified(u)
				_, m2 := oracle2.qualified(u)
				if m1 < cfg.Margin || m2 < cfg.Margin {
					continue
				}
				rep.Checks++
				if base.Contains(u) && !reg2.Contains(u) {
					rep.fail(Mismatch{Kind: "invariant-eps-monotone", Solver: "E-PT", Problem: prob, U: u,
						Detail: fmt.Sprintf("qualified at ε=%v but not at ε=%v", q.Eps, eps2)})
				}
			}
		}
	}

	// Monotonicity in k: relaxing the rank requirement can only grow the
	// region (the plane arrangement is k-independent, so margins carry over).
	qk := q
	qk.K = q.K + 1
	if regK, _, err := ept.Solve(ctx, prep, qk); err == nil {
		for _, u := range samples {
			if _, m := oracle.qualified(u); m < cfg.Margin {
				continue
			}
			rep.Checks++
			if base.Contains(u) && !regK.Contains(u) {
				rep.fail(Mismatch{Kind: "invariant-k-monotone", Solver: "E-PT", Problem: prob, U: u,
					Detail: fmt.Sprintf("qualified at k=%d but not at k=%d", q.K, qk.K)})
			}
		}
	}

	// ε = 0 must coincide exactly with the public reverse top-k operator.
	if q.Eps == 0 {
		raw := make([][]float64, len(ins.Pts))
		for i, p := range ins.Pts {
			raw[i] = p
		}
		ds, err := rrq.NewDataset(raw)
		if err != nil {
			rep.fail(Mismatch{Kind: "invariant-rtopk", Problem: prob, Detail: "NewDataset: " + err.Error()})
			return
		}
		rtk, err := rrq.ReverseTopK(ds, rrq.Point(q.Q), q.K)
		if err != nil {
			rep.fail(Mismatch{Kind: "invariant-rtopk", Problem: prob, Detail: "ReverseTopK: " + err.Error()})
			return
		}
		for _, u := range samples {
			if _, m := oracle.qualified(u); m < cfg.Margin {
				continue
			}
			rep.Checks++
			if base.Contains(u) != rtk.Contains(rrq.Vector(u)) {
				rep.fail(Mismatch{Kind: "invariant-rtopk", Solver: "E-PT", Problem: prob, U: u,
					Detail: "ε=0 region disagrees with public ReverseTopK"})
			}
		}
	}
}

// permutedPoints returns a deterministic shuffle of pts.
func permutedPoints(pts []vec.Vec, seed int64) []vec.Vec {
	out := make([]vec.Vec, len(pts))
	copy(out, pts)
	// Fisher-Yates driven by a small deterministic LCG: no global state.
	s := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := len(out) - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int(s % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func (rep *Report) fail(m Mismatch) {
	rep.Mismatches = append(rep.Mismatches, m)
}

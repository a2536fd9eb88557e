package rrq

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// obsCase pairs a solver with a dataset and query it can handle, for the
// Stats invariants that must hold across every algorithm. The queries are
// competitive (strong on some attributes, weak on others), so every solver
// does real work and returns a non-empty region.
type obsCase struct {
	name string
	ds   *Dataset
	q    Query
	opts []Option
}

func obsCases() []obsCase {
	ds2 := SyntheticDataset(Independent, 60, 2, 31)
	ds3 := SyntheticDataset(Independent, 40, 3, 32)
	q2 := Query{Q: Point{0.9, 0.5}, K: 5, Epsilon: 0.1}
	q3 := Query{Q: Point{0.9, 0.6, 0.4}, K: 5, Epsilon: 0.1}
	return []obsCase{
		{"sweeping", ds2, q2, []Option{WithAlgorithm(SweepingAlgo)}},
		{"ept", ds3, q3, []Option{WithAlgorithm(EPTAlgo)}},
		{"apc", ds3, q3, []Option{WithAlgorithm(APCAlgo), WithSamples(80), WithSeed(7)}},
		{"lpcta", ds3, q3, []Option{WithAlgorithm(LPCTAAlgo)}},
		{"brute-2d", ds2, q2, []Option{WithAlgorithm(BruteForceAlgo)}},
		{"brute-nd", ds3, q3, []Option{WithAlgorithm(BruteForceAlgo)}},
	}
}

// checkStatsInvariants pins what a solver's Stats must say about its own
// answer: Pieces counts the region's partitions, reduction never adds
// planes, and only LP-CTA solves LPs and only A-PC classifies samples.
func checkStatsInvariants(t *testing.T, name string, st Stats, pieces int, lp, sampled bool) {
	t.Helper()
	if st.Pieces != pieces {
		t.Errorf("%s: Stats.Pieces = %d, region has %d partitions", name, st.Pieces, pieces)
	}
	if st.PlanesInserted > st.PlanesBuilt {
		t.Errorf("%s: PlanesInserted %d > PlanesBuilt %d", name, st.PlanesInserted, st.PlanesBuilt)
	}
	if (st.LPSolves > 0) != lp {
		t.Errorf("%s: LPSolves = %d, want > 0 only for LP-CTA", name, st.LPSolves)
	}
	if (st.Samples > 0) != sampled {
		t.Errorf("%s: Samples = %d, want > 0 only for A-PC", name, st.Samples)
	}
}

// TestStatsInvariantsPerSolver checks the Stats of one solve against its
// region for every solver.
func TestStatsInvariantsPerSolver(t *testing.T) {
	for _, tc := range obsCases() {
		res, err := SolveContext(context.Background(), tc.ds, tc.q, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Region.IsEmpty() {
			t.Fatalf("%s: empty region, the case exercises nothing", tc.name)
		}
		checkStatsInvariants(t, tc.name, res.Stats, res.Region.NumPartitions(),
			tc.name == "lpcta", tc.name == "apc")
	}
}

// TestSolveBatchStatsParity checks that a query solved alone and inside a
// batch reports identical Stats and that the batch aggregate sums them.
func TestSolveBatchStatsParity(t *testing.T) {
	for _, tc := range obsCases() {
		p, err := Prepare(tc.ds, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		single, err := p.Solve(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep := p.SolveBatch(context.Background(), []Query{tc.q, tc.q, tc.q})
		var agg Stats
		for i, r := range rep.Results {
			if r.Err != nil {
				t.Fatalf("%s: batch query %d: %v", tc.name, i, r.Err)
			}
			if r.Stats != single.Stats {
				t.Errorf("%s: batch query %d stats %+v differ from single-solve stats %+v",
					tc.name, i, r.Stats, single.Stats)
			}
			agg.Add(r.Stats)
		}
		if rep.Agg != agg {
			t.Errorf("%s: report aggregate %+v is not the sum of per-query stats %+v", tc.name, rep.Agg, agg)
		}
	}
}

// TestBatchAggStatsInvariants runs the Stats invariants through the batch
// engine: the aggregate over a whole batch must describe the batch's
// regions just as one solve's Stats describe its region.
func TestBatchAggStatsInvariants(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 33)
	queries := make([]Query, 8)
	for i := range queries {
		f := float64(i) / 50
		queries[i] = Query{Q: Point{0.85 + f, 0.6, 0.45 - f}, K: 5, Epsilon: 0.1}
	}
	rep, err := SolveBatch(context.Background(), ds, queries,
		WithAlgorithm(EPTAlgo), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("batch failed queries: %d", rep.Failed)
	}
	pieces := 0
	for _, r := range rep.Results {
		pieces += r.Region.NumPartitions()
	}
	if pieces == 0 {
		t.Fatal("every region is empty, the batch exercises nothing")
	}
	checkStatsInvariants(t, "batch", rep.Agg, pieces, false, false)
}

// TestWithMetricsRegistry checks that WithMetrics records phase timers and
// serving counters, that BatchReport.Phases covers exactly one batch, and
// that the shared registry keeps accumulating across batches.
func TestWithMetricsRegistry(t *testing.T) {
	ds := SyntheticDataset(Independent, 40, 3, 34)
	queries := make([]Query, 4)
	for i := range queries {
		queries[i] = Query{Q: ds.RandomQuery(int64(i + 1)), K: 3, Epsilon: 0.1}
	}
	reg := NewRegistry()
	p, err := Prepare(ds, WithAlgorithm(EPTAlgo), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	rep := p.SolveBatch(context.Background(), queries)
	if rep.Phases == nil {
		t.Fatal("BatchReport.Phases is nil with WithMetrics set")
	}
	// Every query runs the plane-construction phase; queries whose effective
	// rank budget collapses return before the insert phase, so only the
	// plane phase has a guaranteed count.
	planes, ok := rep.Phases["phase.ept.planes"]
	if !ok {
		t.Fatalf("phase.ept.planes missing from report phases %v", rep.Phases)
	}
	if planes.Count != int64(len(queries)) {
		t.Errorf("phase.ept.planes ran %d times in the report, want %d", planes.Count, len(queries))
	}

	// A second identical batch must not inflate the first report, but the
	// user registry accumulates both.
	rep2 := p.SolveBatch(context.Background(), queries)
	if got := rep2.Phases["phase.ept.planes"].Count; got != planes.Count {
		t.Errorf("second report phase count %d, want %d (cross-batch contamination)", got, planes.Count)
	}
	if got := reg.Timers()["phase.ept.planes"].Count; got != 2*planes.Count {
		t.Errorf("user registry phase count %d, want %d", got, 2*planes.Count)
	}
	if got := reg.Counter("rrq.solves").Value(); got != 2*int64(len(queries)) {
		t.Errorf("rrq.solves = %d, want %d", got, 2*len(queries))
	}
	if got := reg.Counter("rrq.solve_errors").Value(); got != 0 {
		t.Errorf("rrq.solve_errors = %d, want 0", got)
	}

	// Single solves through the same Prepared count too, and the text
	// exposition carries every metric.
	if _, err := p.Solve(context.Background(), queries[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("rrq.solves").Value(); got != 2*int64(len(queries))+1 {
		t.Errorf("rrq.solves after single solve = %d, want %d", got, 2*len(queries)+1)
	}
	text := reg.Text()
	for _, want := range []string{"rrq.solves:", "phase.ept.planes:"} {
		if !strings.Contains(text, want) {
			t.Errorf("registry text missing %q:\n%s", want, text)
		}
	}
}

// TestQueryValidateRejections is the rejection table of the centralized
// query validation: each malformed query must fail with a *QueryError
// naming the offending field, from every entry point and through every
// solver that runs on a 3-d dataset.
func TestQueryValidateRejections(t *testing.T) {
	ds := SyntheticDataset(Independent, 20, 3, 35)
	good := Query{Q: ds.RandomQuery(1), K: 2, Epsilon: 0.1}
	cases := []struct {
		name  string
		q     Query
		field string
	}{
		{"k-zero", Query{Q: good.Q, K: 0, Epsilon: 0.1}, "k"},
		{"k-negative", Query{Q: good.Q, K: -3, Epsilon: 0.1}, "k"},
		{"eps-negative", Query{Q: good.Q, K: 2, Epsilon: -0.01}, "epsilon"},
		{"eps-one", Query{Q: good.Q, K: 2, Epsilon: 1}, "epsilon"},
		{"eps-above-one", Query{Q: good.Q, K: 2, Epsilon: 1.5}, "epsilon"},
		{"eps-nan", Query{Q: good.Q, K: 2, Epsilon: math.NaN()}, "epsilon"},
		{"q-nan", Query{Q: Point{0.5, math.NaN(), 0.5}, K: 2, Epsilon: 0.1}, "q"},
		{"q-inf", Query{Q: Point{0.5, math.Inf(1), 0.5}, K: 2, Epsilon: 0.1}, "q"},
		{"q-too-short", Query{Q: Point{0.5}, K: 2, Epsilon: 0.1}, "q"},
		{"dim-mismatch", Query{Q: Point{0.5, 0.5}, K: 2, Epsilon: 0.1}, "dim"},
	}
	check := func(t *testing.T, name string, err error, field string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", name)
			return
		}
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Errorf("%s: error %v is not a *QueryError", name, err)
			return
		}
		if qe.Field != field {
			t.Errorf("%s: field %q, want %q", name, qe.Field, field)
		}
	}
	for _, tc := range cases {
		// Standalone validation has no dataset: the dimension mismatch is
		// invisible to it and must pass.
		if tc.field == "dim" {
			if err := tc.q.Validate(); err != nil {
				t.Errorf("%s: standalone Validate rejected a well-formed query: %v", tc.name, err)
			}
		} else {
			check(t, tc.name+"/Validate", tc.q.Validate(), tc.field)
		}
		for _, algo := range []Algorithm{EPTAlgo, APCAlgo, LPCTAAlgo, BruteForceAlgo} {
			_, err := SolveContext(context.Background(), ds, tc.q, WithAlgorithm(algo))
			check(t, tc.name+"/Solve/"+algo.String(), err, tc.field)
		}
	}

	// The Prepared-path solvers name the query as the mismatched side.
	for _, algo := range []Algorithm{EPTAlgo, BruteForceAlgo} {
		_, err := SolveContext(context.Background(), ds, Query{Q: Point{0.5, 0.5}, K: 2, Epsilon: 0.1}, WithAlgorithm(algo))
		const want = "query dimension 2 does not match dataset dimension 3"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("dim-mismatch/%v: error %v, want it to say %q", algo, err, want)
		}
	}

	// The PBA+ index validates through the same authority.
	ix, err := BuildPBAIndex(SyntheticDataset(Independent, 10, 2, 36), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ix.QueryContext(context.Background(), Query{Q: Point{0.5, 0.5}, K: 0, Epsilon: 0.1})
	check(t, "pba-k-zero", err, "k")
	_, err = ix.QueryContext(context.Background(), Query{Q: Point{0.5, 0.5, 0.5}, K: 1, Epsilon: 0.1})
	check(t, "pba-dim-mismatch", err, "dim")

	// And the good query really is good.
	if err := good.Validate(); err != nil {
		t.Errorf("good query rejected: %v", err)
	}
	if _, err := SolveContext(context.Background(), ds, good); err != nil {
		t.Errorf("good query failed to solve: %v", err)
	}
}

// TestPBAIndexMetrics checks the index query path: WithMetrics times the
// search and counts it in the pba.* counters, and the region agrees with
// the regret-ratio definition away from its boundary.
func TestPBAIndexMetrics(t *testing.T) {
	ds := SyntheticDataset(Independent, 12, 2, 37)
	ix, err := BuildPBAIndex(ds, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	q := Query{Q: Point{0.9, 0.5}, K: 2, Epsilon: 0.1}
	r, err := ix.QueryContext(context.Background(), q, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if reg.Timers()["phase.pba.search"].Count != 1 {
		t.Errorf("phase.pba.search not timed: %v", reg.Timers())
	}
	counters := reg.Counters()
	if counters["pba.queries"] != 1 {
		t.Errorf("pba.queries = %d, want 1", counters["pba.queries"])
	}
	if counters["pba.nodes_visited"] <= 0 {
		t.Errorf("pba.nodes_visited = %d, want > 0", counters["pba.nodes_visited"])
	}
	if _, ok := counters["pba.planes_built"]; !ok {
		t.Errorf("pba.planes_built missing from %v", counters)
	}
	var in, out int
	for i := 1; i < 200; i++ {
		u := Vector{float64(i) / 200, 1 - float64(i)/200}
		ratio := RegretRatio(ds, q.Q, q.K, u)
		if math.Abs(ratio-q.Epsilon) < 1e-6 {
			continue
		}
		want := ratio <= q.Epsilon
		if want {
			in++
		} else {
			out++
		}
		if r.Contains(u) != want {
			t.Errorf("u=%v: Contains = %v, regret ratio %.6f says %v", u, !want, ratio, want)
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("%d qualified and %d unqualified probes: the query exercises one side only", in, out)
	}
}

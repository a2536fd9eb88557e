package baseline

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/obs"
	"rrq/internal/vec"
)

func randomInstance(rng *rand.Rand, n, d int) ([]vec.Vec, core.Query) {
	pts := make([]vec.Vec, n)
	for i := range pts {
		p := vec.New(d)
		for j := range p {
			p[j] = 0.01 + 0.99*rng.Float64()
		}
		pts[i] = p
	}
	q := core.Query{
		Q:   pts[rng.Intn(n)].Clone(),
		K:   1 + rng.Intn(4),
		Eps: rng.Float64() * 0.2,
	}
	for j := range q.Q {
		q.Q[j] = math.Min(1, math.Max(0.01, q.Q[j]+(rng.Float64()-0.5)*0.2))
	}
	return pts, q
}

// solveOn answers q over pts the way every caller does: one unfiltered
// Prepare at the points' dimension (the query's when there are none), then
// s.Solve on it.
func solveOn(ctx context.Context, s core.Solver, pts []vec.Vec, q core.Query) (*core.Region, core.Stats, error) {
	d := q.Q.Dim()
	if len(pts) > 0 {
		d = pts[0].Dim()
	}
	prep, err := core.Prepare(pts, d, false)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return s.Solve(ctx, prep, q)
}

const boundaryMargin = 1e-7

// agree verifies two regions classify random utility vectors identically,
// skipping numerically boundary-sitting vectors.
func agree(t *testing.T, a, b *core.Region, pts []vec.Vec, q core.Query, rng *rand.Rand, samples int, label string) {
	t.Helper()
	for i := 0; i < samples; i++ {
		u := vec.RandSimplex(rng, q.Q.Dim())
		_, margin := core.CountBetter(pts, q, u)
		if margin < boundaryMargin {
			continue
		}
		if a.Contains(u) != b.Contains(u) {
			t.Fatalf("%s: disagreement at %v (a=%v b=%v, k=%d ε=%.3f)",
				label, u, a.Contains(u), b.Contains(u), q.K, q.Eps)
		}
	}
}

func TestLPCTAMatchesEPT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range []int{2, 3, 4} {
		for trial := 0; trial < 12; trial++ {
			pts, q := randomInstance(rng, 8+rng.Intn(20), d)
			want, _, err := solveOn(context.Background(), core.EPTSolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := solveOn(context.Background(), LPCTASolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, got, want, pts, q, rng, 200, "LP-CTA vs E-PT")
		}
	}
}

func TestLPCTAStatsCountLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts, q := randomInstance(rng, 30, 3)
	_, st, err := solveOn(context.Background(), LPCTASolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if st.LPSolves == 0 && st.NodesCreated <= 1 {
		t.Skip("degenerate instance with no crossing planes")
	}
	if st.LPSolves%2 != 0 {
		t.Fatalf("LP solves should come in min/max pairs: %+v", st)
	}
}

func TestLPCTAInvalidQuery(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.5, 0.5)}
	if _, _, err := solveOn(context.Background(), LPCTASolver{}, pts, core.Query{Q: vec.Of(0.5, 0.5), K: 0, Eps: 0.1}); err == nil {
		t.Fatal("k=0 should error")
	}
	var qe *core.QueryError
	if _, _, err := solveOn(context.Background(), LPCTASolver{}, []vec.Vec{vec.Of(0.5, 0.5, 0.5)}, core.Query{Q: vec.Of(0.5, 0.5), K: 1, Eps: 0.1}); !errors.As(err, &qe) || qe.Field != "dim" {
		t.Fatalf("dim mismatch: error %v, want a *core.QueryError on field dim", err)
	}
}

func TestPBAMatchesEPT(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range []int{2, 3} {
		for trial := 0; trial < 10; trial++ {
			pts, q := randomInstance(rng, 8+rng.Intn(12), d)
			ix, err := BuildPBA(pts, q.K, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.QueryContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := solveOn(context.Background(), core.EPTSolver{}, pts, q)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, got, want, pts, q, rng, 200, "PBA+ vs E-PT")
		}
	}
}

func TestPBAReusableAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	pts, _ := randomInstance(rng, 15, 3)
	ix, err := BuildPBA(pts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The same index answers different (q, k ≤ kmax, ε) queries.
	for trial := 0; trial < 5; trial++ {
		q := core.Query{
			Q:   pts[rng.Intn(len(pts))].Clone(),
			K:   1 + rng.Intn(3),
			Eps: rng.Float64() * 0.15,
		}
		got, err := ix.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := solveOn(context.Background(), core.EPTSolver{}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		agree(t, got, want, pts, q, rng, 150, "PBA+ reuse vs E-PT")
	}
}

func TestPBAKExceedsIndex(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.6, 0.4)}
	ix, err := BuildPBA(pts, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.QueryContext(context.Background(), core.Query{Q: vec.Of(0.5, 0.5), K: 2, Eps: 0.1}); err == nil {
		t.Fatal("k > kmax should error")
	}
}

func TestPBAKExceedsN(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.5, 0.5), vec.Of(0.6, 0.4)}
	ix, err := BuildPBA(pts, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := ix.QueryContext(context.Background(), core.Query{Q: vec.Of(0.1, 0.1), K: 5, Eps: 0.0})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		if !reg.Contains(vec.RandSimplex(rng, 2)) {
			t.Fatal("k > n: everything should qualify")
		}
	}
}

// expiringCtx is a context whose deadline passes right after a query
// starts: its first Err (the checker's probe at construction) reports nil
// and every later one context.DeadlineExceeded, so "the deadline passes in
// the middle of the search" happens at the same node on every run.
type expiringCtx struct {
	context.Context
	done  chan struct{}
	calls int
}

func newExpiringCtx() *expiringCtx {
	return &expiringCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *expiringCtx) Done() <-chan struct{} { return c.done }

func (c *expiringCtx) Err() error {
	if c.calls++; c.calls == 1 {
		return nil
	}
	if c.calls == 2 {
		close(c.done)
	}
	return context.DeadlineExceeded
}

// largePBA is an index big enough that a weak query's search visits more
// nodes than the checker's polling interval (1024).
func largePBA(t *testing.T) (*PBAIndex, core.Query) {
	t.Helper()
	pts := dataset.Generate(dataset.Independent, 1000, 2, 5)
	ix, err := BuildPBA(pts, 15, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A dominated query is beaten somewhere on every cell, so the search
	// descends through every level down to k.
	q := core.Query{Q: pts[0].Scale(0.3), K: 15, Eps: 0}
	return ix, q
}

// A PBA+ query honors its context: an already-canceled context and a
// deadline that passes mid-search both fail the query instead of returning
// a region, and the search stops at the first poll after the deadline.
func TestPBAQueryContext(t *testing.T) {
	ix, q := largePBA(t)
	if ix.Nodes <= 2048 {
		t.Fatalf("index has %d nodes; the test needs more than two polling intervals", ix.Nodes)
	}
	if _, err := ix.QueryContext(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := ix.QueryContext(canceled, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context: region %v, error %v; want context.Canceled", r, err)
	}

	reg := obs.NewRegistry()
	ctx := newExpiringCtx()
	r, err := ix.QueryContext(obs.ContextWithRegistry(ctx, reg), q)
	if !errors.Is(err, core.ErrDeadline) {
		t.Fatalf("deadline passed mid-search: region %v, error %v; want core.ErrDeadline", r, err)
	}
	if v := reg.Counter("pba.nodes_visited").Value(); v >= int64(ix.Nodes) {
		t.Fatalf("search visited %d of %d nodes after its deadline passed", v, ix.Nodes)
	}
}

// A work budget riding the context bounds a PBA+ search like any solver's.
func TestPBAQueryWorkBudget(t *testing.T) {
	ix, q := largePBA(t)
	_, err := ix.QueryContext(core.ContextWithWorkBudget(context.Background(), 1), q)
	var be *core.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v, want a *core.BudgetError", err)
	}
}

func TestPBABudget(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pts := make([]vec.Vec, 40)
	for i := range pts {
		pts[i] = vec.Of(rng.Float64(), rng.Float64(), rng.Float64())
	}
	_, err := BuildPBA(pts, 5, 10)
	if !errors.Is(err, ErrPBABudget) {
		t.Fatalf("err = %v, want ErrPBABudget", err)
	}
}

func TestPBABuildValidation(t *testing.T) {
	if _, err := BuildPBA(nil, 1, 0); err == nil {
		t.Fatal("empty dataset should error")
	}
	if _, err := BuildPBA([]vec.Vec{vec.Of(0.5, 0.5)}, 0, 0); err == nil {
		t.Fatal("kmax=0 should error")
	}
	if _, err := BuildPBA([]vec.Vec{vec.Of(0.5)}, 1, 0); err == nil {
		t.Fatal("d=1 should error")
	}
}

func TestPBADuplicatePoints(t *testing.T) {
	p := vec.Of(0.7, 0.4)
	pts := []vec.Vec{p, p.Clone(), vec.Of(0.3, 0.8), vec.Of(0.5, 0.5)}
	q := core.Query{Q: vec.Of(0.55, 0.5), K: 2, Eps: 0.08}
	ix, err := BuildPBA(pts, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := solveOn(context.Background(), core.EPTSolver{}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	agree(t, got, want, pts, q, rand.New(rand.NewSource(3)), 300, "PBA+ duplicates")
}

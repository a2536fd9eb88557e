package index

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rrq/internal/core"
	"rrq/internal/diffcheck/corpus"
	"rrq/internal/obs"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

const boundaryMargin = 1e-7

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
		K:   1 + rng.Intn(5),
		Eps: rng.Float64() * 0.25,
	}
	for j := range q.Q {
		q.Q[j] = math.Min(1, math.Max(0.01, q.Q[j]+(rng.Float64()-0.5)*0.2))
	}
	return pts, q
}

// solveJSON answers q over prep with E-PT and returns the region's canonical
// JSON encoding.
func solveJSON(t *testing.T, prep *core.Prepared, q core.Query) []byte {
	t.Helper()
	r, _, err := core.EPTSolver{}.Solve(context.Background(), prep, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// freshPrep builds the from-scratch prefiltered Prepared an index-served
// solve must match byte for byte.
func freshPrep(t *testing.T, pts []vec.Vec, d int) *core.Prepared {
	t.Helper()
	prep, err := core.Prepare(pts, d, true)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// After any sequence of inserts and deletes, the snapshot-served answer must
// be byte-identical to a fresh prefiltered solve over the mirrored dataset —
// the successor of the retired core.Dynamic's match-fresh-solve property,
// strengthened from membership sampling to exact region equality.
func TestIndexMatchesFreshSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1111))
	for _, d := range []int{2, 3, 4} {
		for trial := 0; trial < 8; trial++ {
			pts, q := randomInstance(rng, 12, d)
			ix, err := Build(pts, d)
			if err != nil {
				t.Fatal(err)
			}
			cur := append([]vec.Vec(nil), pts...)
			for op := 0; op < 20; op++ {
				if rng.Intn(3) == 0 && len(cur) > 3 {
					i := rng.Intn(len(cur))
					if _, err := ix.Delete(i); err != nil {
						t.Fatal(err)
					}
					cur = append(cur[:i], cur[i+1:]...)
				} else {
					p := vec.New(d)
					for j := range p {
						p[j] = 0.01 + 0.99*rng.Float64()
					}
					if _, err := ix.Insert(p); err != nil {
						t.Fatal(err)
					}
					cur = append(cur, p)
				}
				got := solveJSON(t, ix.Snapshot().Prepared(), q)
				want := solveJSON(t, freshPrep(t, cur, d), q)
				if !bytes.Equal(got, want) {
					t.Fatalf("d=%d trial=%d op=%d: index-served region differs from fresh solve\n got: %s\nwant: %s",
						d, trial, op, got, want)
				}
			}
			if want := uint64(21); ix.Version() != want {
				t.Fatalf("version = %d, want %d", ix.Version(), want)
			}
		}
	}
}

// Insert-only paths must stay exact without any rebuild, and the membership
// semantics must match the counting oracle.
func TestIndexInsertOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2222))
	pts, q := randomInstance(rng, 10, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]vec.Vec(nil), pts...)
	for i := 0; i < 25; i++ {
		p := vec.New(3)
		for j := range p {
			p[j] = 0.01 + 0.99*rng.Float64()
		}
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
		cur = append(cur, p)
	}
	got, _, err := core.EPTSolver{}.Solve(context.Background(), ix.Snapshot().Prepared(), q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		u := vec.RandSimplex(rng, 3)
		count, margin := core.CountBetter(cur, q, u)
		if margin < boundaryMargin {
			continue
		}
		if got.Contains(u) != (count < q.K) {
			t.Fatalf("insert-only mismatch at %v", u)
		}
	}
}

// A dominating insertion (a product beating q everywhere) must erase the
// region once k such products exist, and deleting one must restore it —
// ported from the retired core.Dynamic.
func TestIndexDominatingInserts(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.3, 0.3), vec.Of(0.4, 0.2)}
	q := core.Query{Q: vec.Of(0.5, 0.5), K: 2, Eps: 0.0}
	ix, err := Build(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	region := func() *core.Region {
		r, _, err := core.EPTSolver{}.Solve(context.Background(), ix.Snapshot().Prepared(), q)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if region().Empty() {
		t.Fatal("initial region should cover everything")
	}
	if _, err := ix.Insert(vec.Of(0.9, 0.9)); err != nil {
		t.Fatal(err)
	}
	if region().Empty() {
		t.Fatal("one dominator with k=2 should leave the region intact")
	}
	if _, err := ix.Insert(vec.Of(0.95, 0.95)); err != nil {
		t.Fatal(err)
	}
	if !region().Empty() {
		t.Fatal("two dominators with k=2 should empty the region")
	}
	if _, err := ix.Delete(3); err != nil {
		t.Fatal(err)
	}
	if region().Empty() {
		t.Fatal("deletion should restore the region")
	}
}

// Regression: (0.5, 2e-17) dominates (0.5, 1e-18) although both sums
// round to 0.5. Build must count that dominator in either input order and
// agree with Build followed by Insert, and Delete must then bring the
// dominated point's count back to 0, not to −1.
func TestIndexEqualSumDominator(t *testing.T) {
	q, p := vec.Of(0.5, 1e-18), vec.Of(0.5, 2e-17)
	counts := func(ix *Index) []int { return append([]int(nil), ix.Snapshot().DominatorCounts()...) }
	for _, tc := range []struct {
		name  string
		first vec.Vec
		then  vec.Vec
		want  []int // counts of [first, then]
	}{
		{"dominated first", q, p, []int{1, 0}},
		{"dominator first", p, q, []int{0, 1}},
	} {
		built, err := Build([]vec.Vec{tc.first, tc.then}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := counts(built); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Build counts %v, want %v", tc.name, got, tc.want)
		}
		grown, err := Build([]vec.Vec{tc.first}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := grown.Insert(tc.then); err != nil {
			t.Fatal(err)
		}
		if got := counts(grown); !slices.Equal(got, tc.want) {
			t.Errorf("%s: Build+Insert counts %v, want %v", tc.name, got, tc.want)
		}
		for _, ix := range []*Index{built, grown} {
			// Delete the dominator; the survivor has no dominator left.
			victim := 1
			if tc.want[1] == 1 {
				victim = 0
			}
			if _, err := ix.Delete(victim); err != nil {
				t.Fatal(err)
			}
			if got := counts(ix); !slices.Equal(got, []int{0}) {
				t.Errorf("%s: counts after deleting the dominator %v, want [0]", tc.name, got)
			}
		}
	}
}

func TestIndexErrors(t *testing.T) {
	pts := []vec.Vec{vec.Of(0.5, 0.5)}
	var de *core.DataError
	if _, err := Build(pts, 1); !errors.As(err, &de) || de.Point != -1 || de.Attr != -1 {
		t.Errorf("dim=1: err = %v, want *core.DataError{Point: -1, Attr: -1}", err)
	}
	ix, err := Build(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(vec.Of(1, 2, 3)); err == nil {
		t.Error("dim-mismatched insert accepted")
	}
	if _, err := ix.Insert(vec.Of(0.5, math.NaN())); err == nil {
		t.Error("NaN insert accepted")
	}
	if _, err := ix.Delete(5); err == nil {
		t.Error("out-of-range delete accepted")
	}
	if ix.Len() != 1 {
		t.Errorf("Len = %d, want 1", ix.Len())
	}
	if ix.Version() != 1 {
		t.Errorf("rejected mutations must not bump the version, got %d", ix.Version())
	}
}

// mutate applies one deterministic mutation to ix and the mirror slice,
// preferring duplicates of existing points half the time so ties at the k-th
// rank and exact duplicates flow through the delta maintenance.
func mutate(t *testing.T, rng *rand.Rand, ix *Index, cur []vec.Vec, d int) []vec.Vec {
	t.Helper()
	switch {
	case rng.Intn(3) == 0 && len(cur) > 2:
		i := rng.Intn(len(cur))
		if _, err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
		return append(cur[:i], cur[i+1:]...)
	case rng.Intn(2) == 0:
		p := cur[rng.Intn(len(cur))].Clone()
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
		return append(cur, p)
	default:
		p := vec.New(d)
		for j := range p {
			p[j] = 0.05 + 0.9*rng.Float64()
		}
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
		return append(cur, p)
	}
}

// The maintained dominator counts and every k-skyband view must match the
// from-scratch computation after each mutation, on the corpus families built
// to stress exactly the delta path: ties at the k-th rank and exact
// duplicate points.
func TestIndexDeltaSkybandCorpus(t *testing.T) {
	for _, fam := range []byte{corpus.FamRankTies, corpus.FamDuplicates, corpus.FamColinear} {
		for _, dim := range []int{2, 3, 4} {
			for variant := 0; variant < 4; variant++ {
				ins, ok := corpus.DecodeDim(corpus.Encode(fam, dim, 5+variant, 1+variant, variant, int64(variant)*7919+17), dim)
				if !ok {
					t.Fatal("corpus decode failed")
				}
				ix, err := Build(ins.Pts, dim)
				if err != nil {
					t.Fatal(err)
				}
				cur := append([]vec.Vec(nil), ins.Pts...)
				rng := rand.New(rand.NewSource(int64(fam)*1000 + int64(dim)*10 + int64(variant)))
				for op := 0; op < 15; op++ {
					cur = mutate(t, rng, ix, cur, dim)
					s := ix.Snapshot()
					wantDom := skyband.DominatorCount(cur)
					gotDom := s.DominatorCounts()
					for i := range wantDom {
						if gotDom[i] != wantDom[i] {
							t.Fatalf("fam=%s dim=%d variant=%d op=%d: dominator count[%d] = %d, want %d",
								ins.Family, dim, variant, op, i, gotDom[i], wantDom[i])
						}
					}
					for k := 1; k <= 6; k++ {
						got := s.Prepared().PointsFor(k)
						want := skyband.Select(cur, skyband.KSkyband(cur, k))
						if len(got) != len(want) {
							t.Fatalf("fam=%s dim=%d op=%d k=%d: band size %d, want %d",
								ins.Family, dim, op, k, len(got), len(want))
						}
						for i := range want {
							if !got[i].Equal(want[i], 0) {
								t.Fatalf("fam=%s dim=%d op=%d k=%d: band[%d] = %v, want %v",
									ins.Family, dim, op, k, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// Concurrent readers pinned to an epoch must keep producing the same answer
// while writers publish later epochs — run under -race, this is the
// snapshot-isolation guarantee.
func TestIndexSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(3333))
	pts, q := randomInstance(rng, 14, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Pin one epoch and verify its answer never changes while
			// mutations publish new epochs around it.
			snap := ix.Snapshot()
			prep := snap.Prepared()
			first, _, err := core.EPTSolver{}.Solve(context.Background(), prep, q)
			if err != nil {
				errs <- err.Error()
				return
			}
			want, err := first.MarshalJSON()
			if err != nil {
				errs <- err.Error()
				return
			}
			ver := snap.Version()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap.Version() != ver || snap.Len() != len(snap.Points()) {
					errs <- "snapshot mutated under reader"
					return
				}
				r, _, err := core.EPTSolver{}.Solve(context.Background(), prep, q)
				if err != nil {
					errs <- err.Error()
					return
				}
				got, err := r.MarshalJSON()
				if err != nil {
					errs <- err.Error()
					return
				}
				if !bytes.Equal(got, want) {
					errs <- "pinned snapshot's answer changed across epochs"
					return
				}
			}
		}()
	}

	cur := append([]vec.Vec(nil), pts...)
	for op := 0; op < 40; op++ {
		cur = mutate(t, rng, ix, cur, 3)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// After the dust settles, the latest epoch must still match fresh.
	got := solveJSON(t, ix.Snapshot().Prepared(), q)
	want := solveJSON(t, freshPrep(t, cur, 3), q)
	if !bytes.Equal(got, want) {
		t.Fatalf("final epoch differs from fresh solve")
	}
}

// solveJSONCtx is solveJSON under a caller context (e.g. one carrying a
// metrics registry).
func solveJSONCtx(t *testing.T, ctx context.Context, prep *core.Prepared, q core.Query) []byte {
	t.Helper()
	r, _, err := core.EPTSolver{}.Solve(ctx, prep, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A served stream keeps no plane group on the snapshot: asking one
// (point, ε) three times classifies its planes three times — three misses,
// no hit — and answers identically each time. A new epoch counts the same.
func TestIndexPlaneCache(t *testing.T) {
	rng := rand.New(rand.NewSource(4444))
	pts, q := randomInstance(rng, 12, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	var misses int64
	solve := func(step string, prep *core.Prepared) []byte {
		t.Helper()
		b := solveJSONCtx(t, ctx, prep, q)
		misses++
		c := reg.Counters()
		if c["index.planes.hit"] != 0 || c["index.planes.miss"] != misses {
			t.Fatalf("%s: hits/misses = %d/%d, want 0/%d", step, c["index.planes.hit"], c["index.planes.miss"], misses)
		}
		if st := ix.Stats(); st.PlaneHits != 0 || st.PlaneMisses != misses {
			t.Fatalf("%s: stats hits/misses = %d/%d, want 0/%d", step, st.PlaneHits, st.PlaneMisses, misses)
		}
		return b
	}
	prep := ix.Snapshot().Prepared()
	a := solve("first solve", prep)
	b := solve("second solve", prep)
	c := solve("third solve", prep)
	if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
		t.Fatal("repeated solve on one snapshot differs")
	}
	if _, err := ix.Insert(vec.Of(0.5, 0.5, 0.5)); err != nil {
		t.Fatal(err)
	}
	next := ix.Snapshot().Prepared()
	for _, step := range []string{"new epoch, first solve", "new epoch, second solve", "new epoch, third solve"} {
		solve(step, next)
	}
}

// solveBatchJSON answers queries as one E-PT batch on prep and returns
// each region's JSON.
func solveBatchJSON(t *testing.T, ctx context.Context, prep *core.Prepared, queries []core.Query, workers int) [][]byte {
	t.Helper()
	out := make([][]byte, len(queries))
	for i, o := range core.SolveBatchPolicy(ctx, core.SolvePolicy{Solver: core.EPTSolver{}}, prep, queries, workers) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		b, err := o.Region.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// One (point, ε) asked at k = 3, 7, 3, 5 in one batch on a snapshot is one
// plane group: the duplicate k = 3 is deduplicated, the group is classified
// once at 7 and narrowed for 3 and 5 — one miss, two hits, added to the
// index's counters — and every answer is byte-identical to an E-PT solve
// on an unfiltered Prepare of the k-skyband.
func TestSnapshotPlaneStoreAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(5151))
	pts, q := randomInstance(rng, 60, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	var queries []core.Query
	for _, k := range []int{3, 7, 3, 5} {
		q.K = k
		queries = append(queries, q)
	}
	for i, got := range solveBatchJSON(t, ctx, ix.Snapshot().Prepared(), queries, 1) {
		k := queries[i].K
		band := skyband.Select(pts, skyband.KSkyband(pts, k))
		bandPrep, err := core.Prepare(band, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if ref := solveJSONCtx(t, context.Background(), bandPrep, queries[i]); !bytes.Equal(got, ref) {
			t.Fatalf("k=%d: snapshot region differs from the unfiltered reference\n got %s\nwant %s", k, got, ref)
		}
	}
	if c := reg.Counters(); c["index.planes.hit"] != 2 || c["index.planes.miss"] != 1 {
		t.Fatalf("registry hits/misses = %d/%d, want 2/1", c["index.planes.hit"], c["index.planes.miss"])
	}
	if st := ix.Stats(); st.PlaneHits != 2 || st.PlaneMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 2/1", st.PlaneHits, st.PlaneMisses)
	}
}

// Concurrent workers of one batch build and narrow the same plane group at
// once; every answer must still equal the fresh solve at its rank, the
// group is classified once, and it dies with the batch: a served solve of
// the same (point, ε) afterwards misses.
func TestSnapshotPlaneStoreConcurrentK(t *testing.T) {
	rng := rand.New(rand.NewSource(6161))
	pts, q := randomInstance(rng, 60, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshPrep(t, pts, 3)
	var queries []core.Query
	for k := 1; k <= 6; k++ {
		q.K = k
		queries = append(queries, q)
	}
	prep := ix.Snapshot().Prepared()
	for i, got := range solveBatchJSON(t, context.Background(), prep, queries, 4) {
		if want := solveJSON(t, fresh, queries[i]); !bytes.Equal(got, want) {
			t.Errorf("k=%d: concurrent batch solve differs from fresh solve", queries[i].K)
		}
	}
	if st := ix.Stats(); st.PlaneHits != 5 || st.PlaneMisses != 1 {
		t.Fatalf("after the batch: hits/misses = %d/%d, want 5/1", st.PlaneHits, st.PlaneMisses)
	}
	solveJSON(t, prep, queries[0])
	if st := ix.Stats(); st.PlaneHits != 5 || st.PlaneMisses != 2 {
		t.Fatalf("after a served solve: hits/misses = %d/%d, want 5/2", st.PlaneHits, st.PlaneMisses)
	}
}

// Save/Load must preserve the dataset and epoch number, and a
// loaded index must answer byte-identically.
func TestIndexSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6666))
	pts, q := randomInstance(rng, 12, 3)
	ix, err := Build(pts, 3)
	if err != nil {
		t.Fatal(err)
	}
	cur := append([]vec.Vec(nil), pts...)
	for op := 0; op < 10; op++ {
		cur = mutate(t, rng, ix, cur, 3)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Version() != ix.Version() {
		t.Fatalf("version = %d, want %d", loaded.Version(), ix.Version())
	}
	if loaded.Dim() != 3 || loaded.Len() != ix.Len() {
		t.Fatalf("shape mismatch after load: dim=%d len=%d", loaded.Dim(), loaded.Len())
	}
	got := solveJSON(t, loaded.Snapshot().Prepared(), q)
	want := solveJSON(t, ix.Snapshot().Prepared(), q)
	if !bytes.Equal(got, want) {
		t.Fatal("loaded index answers differently")
	}
	// Mutations on the restored index continue the epoch sequence.
	v, err := loaded.Insert(vec.Of(0.5, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if v != ix.Version()+1 {
		t.Fatalf("post-load insert version = %d, want %d", v, ix.Version()+1)
	}
	if _, err := Load(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage accepted by Load")
	}
}

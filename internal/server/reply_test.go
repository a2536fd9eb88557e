package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rrq"
)

// replyIndex is a cached 4-d index over 80 seeded uniform points. At k = 5
// and ε = 0.1, wideQuery's answer has tens of cells and narrowQuery's one.
func replyIndex(t *testing.T) *rrq.Index {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	rows := make([][]float64, 80)
	for i := range rows {
		rows[i] = make([]float64, 4)
		for j := range rows[i] {
			rows[i][j] = 0.01 + 0.99*rng.Float64()
		}
	}
	ds, err := rrq.NewDataset(rows)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rrq.BuildIndex(ds, rrq.WithResultCache(64))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

var (
	wideQuery   = rrq.Query{Q: rrq.Point{0.8, 0.8, 0.8, 0.8}, K: 5, Epsilon: 0.1}
	narrowQuery = rrq.Query{Q: rrq.Point{0.9, 0.9, 0.9, 0.9}, K: 5, Epsilon: 0.1}
)

func solveBodyFor(q rrq.Query) string {
	b, _ := json.Marshal(solveRequest{Q: q.Q, K: q.K, Epsilon: q.Epsilon})
	return string(b)
}

// referenceWriteSolve is how a solve reply was written before it was
// appended into one buffer: the region marshalled on its own, then the
// whole response, region as a json.RawMessage, through json.Encoder.
func referenceWriteSolve(w http.ResponseWriter, version uint64, ans answer, shared bool) {
	region, err := ans.res.Region.MarshalJSON()
	if err != nil {
		writeError(w, err, 0)
		return
	}
	w.Header().Set("X-RRQ-Tier", ans.res.Tier.String())
	writeJSON(w, http.StatusOK, solveReply{solveHead(version, ans, shared), region})
}

// A reply's status, body (trailing newline included) and headers are those
// the reference writes, for a miss, a hit, a coalesced follower and an
// anytime answer carrying accuracy, a cache source and a degraded cause
// that encoding/json HTML-escapes.
func TestSolveResponseBytes(t *testing.T) {
	ix := replyIndex(t)
	s, err := New(Config{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	solve := func(q rrq.Query, opts ...rrq.Option) rrq.Result {
		t.Helper()
		res, err := ix.SolveContext(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	miss := solve(wideQuery)
	hit := solve(wideQuery)
	looser := wideQuery
	looser.K++
	anytime := solve(looser, rrq.WithAnytimeSamples(12))
	if miss.Cache.String() != "miss" || hit.Cache.String() != "hit" || hit.Region.NumPartitions() < 10 {
		t.Fatalf("precondition: cache %s then %s, %d partitions", miss.Cache, hit.Cache, hit.Region.NumPartitions())
	}
	if anytime.Accuracy == nil || anytime.CacheSource == nil {
		t.Fatalf("precondition: the anytime answer has accuracy %v and cache source %v", anytime.Accuracy, anytime.CacheSource)
	}
	cases := []struct {
		name   string
		ans    answer
		shared bool
	}{
		{"miss", answer{res: miss}, false},
		{"hit", answer{res: hit}, false},
		{"deduped follower", answer{res: hit}, true},
		{"anytime", answer{res: anytime, degraded: &degradedNote{
			Reason: "timeout", Cause: `core: deadline <20ms> & "retried"`}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			s.writeSolve(got, ix.Version(), c.ans, c.shared)
			referenceWriteSolve(want, ix.Version(), c.ans, c.shared)
			if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("reply %d %q\nwant %d %q", got.Code, got.Body, want.Code, want.Body)
			}
			for _, h := range []string{"Content-Type", "X-RRQ-Tier"} {
				if g, w := got.Header().Values(h), want.Header().Values(h); len(g) != 1 || len(w) != 1 || g[0] != w[0] {
					t.Errorf("header %s = %q, want %q", h, g, w)
				}
			}
			if len(got.Header()) != len(want.Header()) {
				t.Errorf("headers %v, want %v", got.Header(), want.Header())
			}
		})
	}
}

// Eight goroutines serve cache hits of one region at once, alternating
// with a one-cell answer so pooled buffers pass between reply sizes; every
// reply carries the library's region bytes.
func TestSolveHitConcurrentEncode(t *testing.T) {
	ix := replyIndex(t)
	s, err := New(Config{Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for _, q := range []rrq.Query{wideQuery, narrowQuery} {
		res, err := ix.SolveContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if want[solveBodyFor(q)], err = res.Region.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	h := s.Handler()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := solveBodyFor(wideQuery)
				if (g+i)%2 == 1 {
					body = solveBodyFor(narrowQuery)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
				var reply solveReply
				if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
					t.Errorf("malformed reply %q: %v", rec.Body, err)
					return
				}
				if reply.Cache != "hit" || !bytes.Equal(reply.Region, want[body]) {
					t.Errorf("%s: cache %s, region differs from the library's", body, reply.Cache)
					return
				}
			}
		}()
	}
	wg.Wait()
}

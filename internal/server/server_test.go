package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rrq"
	"rrq/internal/core"
	"rrq/internal/faultinject"
)

// testIndex builds a small 2-d index with caching enabled.
func testIndex(t *testing.T, opts ...rrq.Option) *rrq.Index {
	t.Helper()
	ds, err := rrq.NewDataset([][]float64{
		{0.20, 0.92},
		{0.70, 0.54},
		{0.60, 0.30},
		{0.35, 0.80},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := rrq.BuildIndex(ds, append([]rrq.Option{rrq.WithResultCache(32)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	return newFaultServer(t, cfg, nil)
}

// newFaultServer serves cfg with inj armed on every request's context, the
// way fault injectors reach a solve.
func newFaultServer(t *testing.T, cfg Config, inj *faultinject.Injector) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(withFaults(s.Handler(), inj))
	t.Cleanup(ts.Close)
	return ts
}

// withFaults arms inj on the context of every request h serves.
func withFaults(h http.Handler, inj *faultinject.Injector) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r.WithContext(faultinject.ContextWith(r.Context(), inj)))
	})
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// solveReply is a decoded /v1/solve success body: the head fields and the
// raw region.
type solveReply struct {
	solveResponse
	Region json.RawMessage `json:"region"`
}

func decodeSolve(t *testing.T, b []byte) solveReply {
	t.Helper()
	var sr solveReply
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("malformed solve response %s: %v", b, err)
	}
	return sr
}

func decodeError(t *testing.T, b []byte) errorResponse {
	t.Helper()
	var er errorResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("malformed error response %s: %v", b, err)
	}
	return er
}

const solveBody = `{"q":[0.4,0.7],"k":2,"epsilon":0.1}`

// The CI smoke sequence as a unit test: solve, repeat (cache hit), insert
// (version bump), solve again (version miss).
func TestSolveInsertSolveCacheFlow(t *testing.T) {
	reg := rrq.NewRegistry()
	ix := testIndex(t, rrq.WithMetrics(reg))
	ts := newTestServer(t, Config{Index: ix, Metrics: reg})

	resp, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, b)
	}
	first := decodeSolve(t, b)
	if first.Cache != "miss" || first.Version != 1 {
		t.Fatalf("first solve: cache=%q version=%d, want miss/1", first.Cache, first.Version)
	}
	if len(first.Region) == 0 || first.Partitions == 0 {
		t.Fatalf("first solve returned no region: %s", b)
	}

	resp, b = postJSON(t, ts.URL+"/v1/solve", solveBody)
	second := decodeSolve(t, b)
	if resp.StatusCode != http.StatusOK || second.Cache != "hit" {
		t.Fatalf("repeat solve: status=%d cache=%q, want 200/hit", resp.StatusCode, second.Cache)
	}
	if !bytes.Equal(first.Region, second.Region) {
		t.Fatal("cache-served region differs from the fresh answer")
	}

	resp, b = postJSON(t, ts.URL+"/v1/insert", `{"point":[0.5,0.6]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, b)
	}
	var mr mutateResponse
	if err := json.Unmarshal(b, &mr); err != nil || mr.Version != 2 {
		t.Fatalf("insert response %s, want version 2", b)
	}

	resp, b = postJSON(t, ts.URL+"/v1/solve", solveBody)
	third := decodeSolve(t, b)
	if resp.StatusCode != http.StatusOK || third.Cache != "miss" || third.Version != 2 {
		t.Fatalf("post-insert solve: status=%d cache=%q version=%d, want 200/miss/2", resp.StatusCode, third.Cache, third.Version)
	}

	// Delete restores the original market; yet another epoch.
	resp, b = postJSON(t, ts.URL+"/v1/delete", `{"index":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d: %s", resp.StatusCode, b)
	}

	// Stats reflect the traffic.
	r2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(r2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Version != 3 || st.Index.Points != 4 {
		t.Fatalf("stats index = %+v, want version 3 with 4 points", st.Index)
	}
	if st.Index.Cache == nil || st.Index.Cache.Hits < 1 {
		t.Fatalf("stats cache = %+v, want ≥ 1 hit", st.Index.Cache)
	}

	// The metrics page carries the library counters.
	r3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(r3.Body)
	for _, want := range []string{"cache.hit", "server.requests", "rrq.solves"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// Typed validation errors map to 400 with a stable kind.
func TestErrorMappingValidation(t *testing.T) {
	ts := newTestServer(t, Config{Index: testIndex(t)})
	cases := []struct {
		name, path, body, kind string
	}{
		{"malformed json", "/v1/solve", `{"q":`, "query"},
		{"bad k", "/v1/solve", `{"q":[0.4,0.7],"k":0,"epsilon":0.1}`, "query"},
		{"bad epsilon", "/v1/solve", `{"q":[0.4,0.7],"k":2,"epsilon":1.5}`, "query"},
		{"dimension mismatch", "/v1/solve", `{"q":[0.4,0.7,0.1],"k":2,"epsilon":0.1}`, "query"},
		{"unknown field", "/v1/solve", `{"qq":[0.4]}`, "query"},
		{"insert NaN-free dim mismatch", "/v1/insert", `{"point":[0.4]}`, "data"},
		{"delete out of range", "/v1/delete", `{"index":99}`, "data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s, want 400", resp.StatusCode, b)
			}
			if er := decodeError(t, b); er.Kind != tc.kind {
				t.Fatalf("kind %q, want %q (%s)", er.Kind, tc.kind, b)
			}
		})
	}
}

// hardLPCTAQuery returns a 2-d market and a query point on which LP-CTA
// does real LP work — the budget checks are amortized, so a toy market
// never trips them.
func hardLPCTAQuery(t *testing.T) (*rrq.Dataset, rrq.Point) {
	t.Helper()
	ds := rrq.SyntheticDataset(rrq.Independent, 300, 2, 13)
	for seed := int64(1); seed < 30; seed++ {
		cand := ds.RandomQuery(seed)
		res, err := rrq.SolveContext(context.Background(), ds, rrq.Query{Q: cand, K: 10, Epsilon: 0.2},
			rrq.WithAlgorithm(rrq.LPCTAAlgo))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Region.IsEmpty() && res.Stats.LPSolves > 200 {
			return ds, cand
		}
	}
	t.Fatal("precondition: no query makes LP-CTA work hard enough")
	return nil, nil
}

// A solver work-budget failure surfaces as 429 with kind "budget" and no
// Retry-After.
func TestErrorMappingSolverBudget(t *testing.T) {
	ds, q := hardLPCTAQuery(t)
	ix, err := rrq.BuildIndex(ds, rrq.WithWorkBudget(50), rrq.WithAlgorithm(rrq.LPCTAAlgo))
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Index: ix})
	resp, b := postJSON(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"q":[%.17g,%.17g],"k":10,"epsilon":0.2}`, q[0], q[1]))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s, want 429", resp.StatusCode, b)
	}
	if er := decodeError(t, b); er.Kind != "budget" {
		t.Fatalf("kind %q, want budget (%s)", er.Kind, b)
	}
	// Retrying the same over-budget query cannot help, so unlike a tenant
	// rejection the answer names no retry time.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("solver-budget 429 carries Retry-After %q", ra)
	}
}

// The two exact-solve triggers of the degradation ladder. With
// AnytimeBudget, an exact solve that runs past the query timeout or its
// work budget answers 200 on the anytime tier with the trigger named in
// "degraded", and concurrent identical requests share the leader's one
// degraded answer. Without it, the same request answers 504 or 429.
func TestLadderExactFailureTriggers(t *testing.T) {
	ds, q := hardLPCTAQuery(t)
	body := fmt.Sprintf(`{"q":[%.17g,%.17g],"k":10,"epsilon":0.2}`, q[0], q[1])
	cases := []struct {
		reason, kind string
		status       int
		limit        rrq.Option
	}{
		{"timeout", "deadline", http.StatusGatewayTimeout, rrq.WithQueryTimeout(20 * time.Millisecond)},
		{"budget", "budget", http.StatusTooManyRequests, rrq.WithWorkBudget(50)},
	}
	for _, tc := range cases {
		for _, anytime := range []time.Duration{0, 50 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/anytime=%v", tc.reason, anytime), func(t *testing.T) {
				// The delay holds the exact solve open long enough for a
				// follower to join its flight (and, with the 20ms query
				// timeout, expires it).
				inj := faultinject.New(&faultinject.Fault{Point: faultinject.SolveStart, Delay: 150 * time.Millisecond})
				reg := rrq.NewRegistry()
				ix, err := rrq.BuildIndex(ds, rrq.WithAlgorithm(rrq.LPCTAAlgo), rrq.WithMetrics(reg), tc.limit)
				if err != nil {
					t.Fatal(err)
				}
				adm := NewAdmission(AdmitAlways, 4, 0)
				ts := newFaultServer(t, Config{
					Index:         ix,
					Metrics:       reg,
					Admission:     adm,
					AnytimeBudget: anytime,
				}, inj)
				if anytime == 0 {
					resp, b := postJSON(t, ts.URL+"/v1/solve", body)
					if resp.StatusCode != tc.status {
						t.Fatalf("status %d: %s, want %d", resp.StatusCode, b, tc.status)
					}
					if er := decodeError(t, b); er.Kind != tc.kind {
						t.Fatalf("kind %q, want %q (%s)", er.Kind, tc.kind, b)
					}
					if got := reg.Counter("server.tier_degraded").Value(); got != 0 {
						t.Fatalf("server.tier_degraded = %d without an anytime budget", got)
					}
					return
				}
				type reply struct {
					resp *http.Response
					body []byte
				}
				replies := make([]reply, 2)
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					replies[0].resp, replies[0].body = postJSON(t, ts.URL+"/v1/solve", body)
				}()
				for i := 0; adm.Depth() == 0 && i < 100; i++ {
					time.Sleep(5 * time.Millisecond)
				}
				replies[1].resp, replies[1].body = postJSON(t, ts.URL+"/v1/solve", body)
				wg.Wait()
				deduped := 0
				for i, r := range replies {
					if r.resp.StatusCode != http.StatusOK {
						t.Fatalf("reply %d: status %d: %s, want 200", i, r.resp.StatusCode, r.body)
					}
					sr := decodeSolve(t, r.body)
					if sr.Tier != "anytime" || r.resp.Header.Get("X-RRQ-Tier") != "anytime" {
						t.Fatalf("reply %d: tier body=%q header=%q, want anytime", i, sr.Tier, r.resp.Header.Get("X-RRQ-Tier"))
					}
					if sr.Degraded == nil || sr.Degraded.Reason != tc.reason || sr.Degraded.Cause == "" {
						t.Fatalf("reply %d: degraded %+v, want reason %q with a cause", i, sr.Degraded, tc.reason)
					}
					if sr.Accuracy == nil || sr.Accuracy.RhoBound <= 0 || sr.Accuracy.RhoBound > 1 {
						t.Fatalf("reply %d: accuracy %+v, want a ρ bound in (0, 1]", i, sr.Accuracy)
					}
					if sr.Deduped {
						deduped++
					}
				}
				if deduped != 1 {
					t.Fatalf("%d deduped replies, want 1: the follower shares the leader's flight", deduped)
				}
				if got := reg.Counter("server.tier_degraded").Value(); got != 1 {
					t.Fatalf("server.tier_degraded = %d, want 1 (one flight degraded)", got)
				}
			})
		}
	}
}

// degradeReason maps exactly the two exact-solve failures the ladder
// absorbs; every other outcome is answered as is.
func TestDegradeReasonClassification(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&core.QueryError{Field: "k", Msg: "x"}, ""},
		{&core.SolveError{Solver: "E-PT", Panic: "x"}, ""},
		{&core.NumericalError{Solver: "LP-CTA", Err: errors.New("lp failed")}, ""},
		{context.Canceled, ""},
		{errors.New("anything else"), ""},
		{core.ErrDeadline, "timeout"},
		{fmt.Errorf("wrapped: %w", core.ErrDeadline), "timeout"},
		{&core.BudgetError{Limit: 1, Spent: 2}, "budget"},
	}
	for _, c := range cases {
		if got := degradeReason(c.err); got != c.want {
			t.Errorf("degradeReason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// A tenant in deficit is rejected 429/"budget" with Retry-After, and other
// tenants are unaffected.
func TestErrorMappingTenantBudget(t *testing.T) {
	ts := newTestServer(t, Config{
		Index:   testIndex(t),
		Tenants: NewTenantBudgets(0.001, 1),
	})
	body := `{"q":[0.4,0.7],"k":2,"epsilon":0.1,"tenant":"alice"}`
	resp, b := postJSON(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first tenant solve: %d %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("deficit tenant status %d: %s, want 429", resp.StatusCode, b)
	}
	er := decodeError(t, b)
	if er.Kind != "budget" || er.RetryAfterS < 1 {
		t.Fatalf("deficit tenant error %+v, want budget with Retry-After ≥ 1", er)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// A different tenant still gets through.
	resp, b = postJSON(t, ts.URL+"/v1/solve", `{"q":[0.4,0.7],"k":2,"epsilon":0.1,"tenant":"bob"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status %d: %s, want 200", resp.StatusCode, b)
	}
}

// Saturating the cap policy sheds with 429, kind "shed" and Retry-After.
func TestErrorMappingShed(t *testing.T) {
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.SolveStart,
		Delay: 300 * time.Millisecond,
	})
	adm := NewAdmission(AdmitCap, 1, 0)
	ts := newFaultServer(t, Config{
		Index:     testIndex(t),
		Admission: adm,
	}, inj)
	// Occupy the only slot with a slow solve...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/solve", solveBody)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow solve status %d", resp.StatusCode)
		}
	}()
	for i := 0; adm.Depth() == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if adm.Depth() == 0 {
		t.Fatal("slow solve never occupied the slot")
	}
	// ...so the next request is shed immediately.
	resp, b := postJSON(t, ts.URL+"/v1/solve", `{"q":[0.35,0.8],"k":1,"epsilon":0.05}`)
	wg.Wait()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s, want 429", resp.StatusCode, b)
	}
	er := decodeError(t, b)
	if er.Kind != "shed" || er.RetryAfterS < 1 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("shed error %+v (Retry-After %q), want shed with Retry-After", er, resp.Header.Get("Retry-After"))
	}
	if adm.Shed() != 1 {
		t.Fatalf("shed counter = %d, want 1", adm.Shed())
	}
}

// With an anytime budget configured, saturation under the cap policy
// degrades to the anytime tier instead of shedding: 200 with tier
// "anytime" (header and body), an accuracy contract, and the
// "server.tier_degraded" counter — while an unsaturated solve still
// reports tier "exact".
func TestDegradedAnytimeTierUnderSaturation(t *testing.T) {
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.SolveStart,
		Delay: 300 * time.Millisecond,
		Times: 1,
	})
	reg := rrq.NewRegistry()
	adm := NewAdmission(AdmitCap, 1, 0)
	ts := newFaultServer(t, Config{
		Index:         testIndex(t, rrq.WithMetrics(reg)),
		Metrics:       reg,
		Admission:     adm,
		AnytimeBudget: 50 * time.Millisecond,
	}, inj)
	// Occupy the only slot with a slow solve...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postJSON(t, ts.URL+"/v1/solve", solveBody)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("slow solve status %d", resp.StatusCode)
		}
	}()
	for i := 0; adm.Depth() == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if adm.Depth() == 0 {
		t.Fatal("slow solve never occupied the slot")
	}
	// ...so the next request degrades to the anytime tier instead of 429.
	resp, b := postJSON(t, ts.URL+"/v1/solve", `{"q":[0.35,0.8],"k":1,"epsilon":0.05}`)
	wg.Wait()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve status %d: %s, want 200", resp.StatusCode, b)
	}
	sr := decodeSolve(t, b)
	if sr.Tier != "anytime" || resp.Header.Get("X-RRQ-Tier") != "anytime" {
		t.Fatalf("degraded solve tier body=%q header=%q, want anytime", sr.Tier, resp.Header.Get("X-RRQ-Tier"))
	}
	if sr.Accuracy == nil || sr.Accuracy.RhoBound <= 0 || sr.Accuracy.RhoBound > 1 {
		t.Fatalf("degraded solve accuracy %+v, want a ρ bound in (0, 1]", sr.Accuracy)
	}
	if sr.Degraded == nil || sr.Degraded.Reason != "saturated" || sr.Degraded.Cause == "" {
		t.Fatalf("degraded solve note %+v, want reason saturated with a cause", sr.Degraded)
	}
	// The admission controller still observed the saturation (adm.Shed()),
	// but the server degraded instead of answering 429: its shed counter
	// stays at zero, the degrade counter records the tier switch.
	if got := reg.Counter("server.shed").Value(); got != 0 {
		t.Fatalf("server.shed = %d, want 0 (degraded, not shed)", got)
	}
	if got := reg.Counter("server.tier_degraded").Value(); got != 1 {
		t.Fatalf("server.tier_degraded = %d, want 1", got)
	}

	// Unsaturated, the tier annotations report the exact path.
	resp, b = postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-saturation solve status %d: %s", resp.StatusCode, b)
	}
	if sr := decodeSolve(t, b); sr.Tier != "exact" || resp.Header.Get("X-RRQ-Tier") != "exact" {
		t.Fatalf("unsaturated solve tier body=%q header=%q, want exact", sr.Tier, resp.Header.Get("X-RRQ-Tier"))
	}
}

// A panic inside the solver is isolated to its request: 500 with kind
// "panic" and the degradation note, and the server keeps serving.
func TestErrorMappingPanic(t *testing.T) {
	inj := faultinject.New(&faultinject.Fault{
		Point:  faultinject.SolveStart,
		Panics: "injected failure",
		Times:  1,
	})
	ts := newFaultServer(t, Config{
		Index: testIndex(t),
	}, inj)
	resp, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d: %s, want 500", resp.StatusCode, b)
	}
	er := decodeError(t, b)
	if er.Kind != "panic" {
		t.Fatalf("kind %q, want panic (%s)", er.Kind, b)
	}
	if !strings.Contains(er.Note, "isolated") {
		t.Fatalf("500 body missing the degradation note: %+v", er)
	}
	// The fault fired once; the server must still answer.
	resp, b = postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic solve status %d: %s, want 200", resp.StatusCode, b)
	}
}

// A panic in the anytime rung is a solver panic like any other: 500 with
// kind "panic", under both triggers of the rung. Under the timeout trigger
// the rung runs inside the singleflight leader, so the flight must still
// close — the repeat of the identical request gets an answer instead of
// waiting forever on the failed flight.
func TestAnytimeRungPanic(t *testing.T) {
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(t *testing.T, url, body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", body, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	wantPanic := func(t *testing.T, status int, b []byte) {
		t.Helper()
		if status != http.StatusInternalServerError {
			t.Fatalf("status %d: %s, want 500", status, b)
		}
		if er := decodeError(t, b); er.Kind != "panic" {
			t.Fatalf("kind %q, want panic (%s)", er.Kind, b)
		}
	}
	const degraded = `{"q":[0.35,0.8],"k":1,"epsilon":0.05}`

	t.Run("timeout", func(t *testing.T) {
		// The first firing stalls the exact solve past its query timeout;
		// the second, in the anytime retry, panics.
		inj := faultinject.New(
			&faultinject.Fault{Point: faultinject.SolveStart, Delay: 100 * time.Millisecond, Times: 1},
			&faultinject.Fault{Point: faultinject.SolveStart, Panics: "injected anytime failure", Times: 1},
		)
		ts := newFaultServer(t, Config{
			Index:         testIndex(t, rrq.WithQueryTimeout(20*time.Millisecond)),
			AnytimeBudget: 50 * time.Millisecond,
		}, inj)
		status, b := post(t, ts.URL+"/v1/solve", degraded)
		wantPanic(t, status, b)
		if status, b := post(t, ts.URL+"/v1/solve", degraded); status != http.StatusOK {
			t.Fatalf("repeat status %d: %s, want 200", status, b)
		}
	})

	t.Run("saturated", func(t *testing.T) {
		slow := `{"q":[0.4,0.7],"k":2,"epsilon":0.1}`
		inj := faultinject.New(
			&faultinject.Fault{Point: faultinject.SolveStart, Match: faultinject.MatchPoint([]float64{0.4, 0.7}),
				Delay: 300 * time.Millisecond, Times: 1},
			&faultinject.Fault{Point: faultinject.SolveStart, Match: faultinject.MatchPoint([]float64{0.35, 0.8}),
				Panics: "injected anytime failure", Times: 1},
		)
		adm := NewAdmission(AdmitCap, 1, 0)
		ts := newFaultServer(t, Config{
			Index:         testIndex(t),
			Admission:     adm,
			AnytimeBudget: 50 * time.Millisecond,
		}, inj)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if status, b := post(t, ts.URL+"/v1/solve", slow); status != http.StatusOK {
				t.Errorf("slow solve status %d: %s", status, b)
			}
		}()
		for i := 0; adm.Depth() == 0 && i < 100; i++ {
			time.Sleep(5 * time.Millisecond)
		}
		if adm.Depth() == 0 {
			t.Fatal("slow solve never occupied the slot")
		}
		status, b := post(t, ts.URL+"/v1/solve", degraded)
		wantPanic(t, status, b)
		if status, b := post(t, ts.URL+"/v1/solve", degraded); status != http.StatusOK {
			t.Fatalf("repeat status %d: %s, want 200", status, b)
		}
		wg.Wait()
	})
}

// Concurrent identical requests are coalesced into one solve.
func TestSolveDedup(t *testing.T) {
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.SolveStart,
		Delay: 300 * time.Millisecond,
	})
	reg := rrq.NewRegistry()
	adm := NewAdmission(AdmitAlways, 4, 0)
	ts := newFaultServer(t, Config{
		Index:     testIndex(t, rrq.WithMetrics(reg)),
		Metrics:   reg,
		Admission: adm,
	}, inj)
	var wg sync.WaitGroup
	wg.Add(1)
	var leader solveReply
	go func() {
		defer wg.Done()
		_, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
		leader = decodeSolve(t, b)
	}()
	for i := 0; adm.Depth() == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	_, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
	follower := decodeSolve(t, b)
	wg.Wait()
	if !follower.Deduped && !leader.Deduped {
		t.Fatal("concurrent identical requests were not coalesced")
	}
	if !bytes.Equal(leader.Region, follower.Region) {
		t.Fatal("coalesced requests returned different regions")
	}
	if reg.Counter("server.dedup").Value() < 1 {
		t.Fatalf("server.dedup = %d, want ≥ 1", reg.Counter("server.dedup").Value())
	}
}

// A follower does not inherit its leader's client cancellation: when the
// leader's client goes away mid-solve, the flight ends in context.Canceled,
// and a follower whose own client is still connected solves again — 200
// with the body an uncoalesced request gets.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	inj := faultinject.New(&faultinject.Fault{
		Point: faultinject.SolveStart,
		Delay: 300 * time.Millisecond,
		Times: 1,
	})
	adm := NewAdmission(AdmitAlways, 4, 0)
	s, err := New(Config{Index: testIndex(t), Admission: adm})
	if err != nil {
		t.Fatal(err)
	}
	h := withFaults(s.Handler(), inj)
	serve := func(ctx context.Context) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(solveBody)).WithContext(ctx)
		h.ServeHTTP(rec, req)
		return rec
	}

	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() { leader <- serve(leaderCtx) }()
	for i := 0; adm.Depth() == 0 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	follower := make(chan *httptest.ResponseRecorder, 1)
	go func() { follower <- serve(context.Background()) }()
	for i := 0; adm.Depth() < 2 && i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if adm.Depth() < 2 {
		t.Fatal("the follower never reached the solve")
	}
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	cancel()
	<-leader
	rec := <-follower
	if rec.Code != http.StatusOK {
		t.Fatalf("follower status %d: %s, want 200", rec.Code, rec.Body.Bytes())
	}
	got := decodeSolve(t, rec.Body.Bytes())
	if got.Deduped {
		t.Fatal("follower reports a shared answer from a canceled flight")
	}
	_, b := postJSON(t, newTestServer(t, Config{Index: testIndex(t)}).URL+"/v1/solve", solveBody)
	if want := decodeSolve(t, b); !bytes.Equal(got.Region, want.Region) || got.Partitions != want.Partitions {
		t.Fatalf("follower region %s, want the uncoalesced %s", got.Region, want.Region)
	}
}

// GET on mutation endpoints is rejected.
func TestMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{Index: testIndex(t)})
	for _, path := range []string{"/v1/solve", "/v1/insert", "/v1/delete"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// Admission under the always policy queues instead of shedding.
func TestAdmissionAlwaysQueues(t *testing.T) {
	a := NewAdmission(AdmitAlways, 1, 0)
	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		rel2, err := a.Acquire(context.Background())
		if err != nil {
			t.Error(err)
			close(done)
			return
		}
		rel2(time.Millisecond)
		close(done)
	}()
	for i := 0; a.Depth() != 2 && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("second acquire got a slot while the first held it")
	default:
	}
	rel1(time.Millisecond)
	<-done
	if a.Shed() != 0 {
		t.Fatalf("always policy shed %d requests", a.Shed())
	}
	if a.Depth() != 0 {
		t.Fatalf("depth = %d after all releases", a.Depth())
	}
}

// A queued request can abandon the wait via its context.
func TestAdmissionContextCancel(t *testing.T) {
	a := NewAdmission(AdmitAlways, 1, 0)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx)
		errc <- err
	}()
	for i := 0; a.Depth() != 2 && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled acquire returned %v", err)
	}
	if a.Depth() != 1 {
		t.Fatalf("depth = %d after canceled waiter left", a.Depth())
	}
	rel(time.Millisecond)
}

// ParseAdmissionPolicy round-trips the two policies and rejects others.
func TestParseAdmissionPolicy(t *testing.T) {
	for _, s := range []string{"always", "cap"} {
		p, err := ParseAdmissionPolicy(s)
		if err != nil || string(p) != s {
			t.Fatalf("ParseAdmissionPolicy(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParseAdmissionPolicy("never"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Post-paid metering: expensive work drives the balance negative, the
// deficit drains at the refill rate.
func TestTenantBudgetsPostPaid(t *testing.T) {
	tb := NewTenantBudgets(10, 5) // 10 units/s, burst 5
	base := time.Unix(1000, 0)
	if _, err := tb.Admit("t", base); err != nil {
		t.Fatalf("fresh tenant rejected: %v", err)
	}
	tb.Charge("t", 25, base) // balance 5 → −20
	retry, err := tb.Admit("t", base)
	if err == nil {
		t.Fatal("deficit tenant admitted")
	}
	if retry < time.Second || retry > 3*time.Second {
		t.Fatalf("retry = %v, want ≈ 2s (20 units at 10/s)", retry)
	}
	// After the deficit drains, the tenant is admitted again.
	if _, err := tb.Admit("t", base.Add(3*time.Second)); err != nil {
		t.Fatalf("drained tenant still rejected: %v", err)
	}
	// Metering disabled: everything is admitted.
	if _, err := NewTenantBudgets(0, 0).Admit("t", base); err != nil {
		t.Fatalf("disabled meter rejected: %v", err)
	}
}

// WorkUnits floors at one unit and sums the solver counters.
func TestWorkUnits(t *testing.T) {
	if n := WorkUnits(rrq.Stats{}); n != 1 {
		t.Fatalf("empty stats = %d units, want 1", n)
	}
	st := rrq.Stats{PlanesBuilt: 10, NodesCreated: 5, LPSolves: 2, Samples: 3}
	if n := WorkUnits(st); n != 20 {
		t.Fatalf("units = %d, want 20", n)
	}
}

// The flight group runs one fn per key and shares the result.
func TestFlightGroup(t *testing.T) {
	var g flightGroup
	started := make(chan struct{})
	block := make(chan struct{})
	var calls int
	go g.Do("k", func() (answer, error) {
		calls++
		close(started)
		<-block
		return answer{}, fmt.Errorf("shared outcome")
	})
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := g.Do("k", func() (answer, error) {
				t.Error("follower ran the function")
				return answer{}, nil
			})
			if !shared || err == nil || err.Error() != "shared outcome" {
				t.Errorf("follower: shared=%v err=%v", shared, err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let followers join the flight
	close(block)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("leader ran %d times", calls)
	}
}

// TestRecoveringServerSheds: a Recovering server answers 503 with
// Retry-After on every v1 endpoint and reports "recovering" on /healthz
// until Ready publishes the index — then it serves normally.
func TestRecoveringServerSheds(t *testing.T) {
	reg := rrq.NewRegistry()
	s, err := New(Config{Recovering: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, ep := range []struct{ path, body string }{
		{"/v1/solve", solveBody},
		{"/v1/insert", `{"point":[0.5,0.5]}`},
		{"/v1/delete", `{"index":0}`},
	} {
		resp, b := postJSON(t, ts.URL+ep.path, ep.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s while recovering: status %d, want 503", ep.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s while recovering: no Retry-After header", ep.path)
		}
		if er := decodeError(t, b); er.Kind != "recovering" {
			t.Fatalf("%s while recovering: kind %q, want recovering", ep.path, er.Kind)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats while recovering: status %d, want 503", resp.StatusCode)
	}
	if got := healthz(t, ts.URL); got != "recovering" {
		t.Fatalf("healthz while recovering: %q", got)
	}
	if n := reg.Counter("server.unavailable").Value(); n != 4 {
		t.Fatalf("server.unavailable = %d, want 4", n)
	}

	s.Ready(testIndex(t))
	resp2, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("solve after Ready: status %d: %s", resp2.StatusCode, b)
	}
	if got := healthz(t, ts.URL); got != "ok" {
		t.Fatalf("healthz after Ready: %q", got)
	}
}

// TestDrainingServerSheds: StartDrain flips every v1 endpoint to 503
// "draining" while /metrics and /healthz stay reachable for scrapes.
func TestDrainingServerSheds(t *testing.T) {
	s, err := New(Config{Index: testIndex(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, b := postJSON(t, ts.URL+"/v1/solve", solveBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve before drain: status %d: %s", resp.StatusCode, b)
	}
	s.StartDrain()
	resp, b := postJSON(t, ts.URL+"/v1/solve", solveBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: status %d, want 503", resp.StatusCode)
	}
	if er := decodeError(t, b); er.Kind != "draining" {
		t.Fatalf("solve while draining: kind %q, want draining", er.Kind)
	}
	if got := healthz(t, ts.URL); got != "draining" {
		t.Fatalf("healthz while draining: %q", got)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics while draining: status %d, want 200", mresp.StatusCode)
	}
}

// healthz fetches /healthz and returns its trimmed body, asserting the
// status code matches the state contract: 200 for "ok", 503 otherwise (so
// status-keyed load-balancer checks deregister draining instances).
func healthz(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSpace(buf.String())
	want := http.StatusServiceUnavailable
	if body == "ok" {
		want = http.StatusOK
	}
	if resp.StatusCode != want {
		t.Fatalf("healthz %q status %d, want %d", body, resp.StatusCode, want)
	}
	return body
}

// Regression for the Retry-After off-by-one: the depth observed at the shed
// boundary still counts the rejected request itself, so the drain estimate
// must subtract the caller. At depth == capacity+maxQueue+1 with a warm
// EWMA, the queue genuinely ahead of a retry is capacity+maxQueue deep —
// the estimate is (maxQueue)·avg/capacity, not (maxQueue+1)·avg/capacity.
func TestRetryAfterExcludesRejectedCaller(t *testing.T) {
	const (
		capacity = 2
		maxQueue = 3
		avg      = 8 * time.Second
	)
	a := NewAdmission(AdmitCap, capacity, maxQueue)
	a.observe(avg) // first observation seeds the EWMA whole

	var releases []func(time.Duration)
	for i := 0; i < capacity; i++ {
		rel, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		releases = append(releases, rel)
	}
	done := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < maxQueue; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			rel, err := a.Acquire(ctx)
			if err == nil {
				rel(time.Millisecond)
			}
		}()
	}
	for i := 0; a.Depth() != capacity+maxQueue && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if a.Depth() != capacity+maxQueue {
		t.Fatalf("depth = %d, want the full queue %d", a.Depth(), capacity+maxQueue)
	}

	// The boundary arrival: observed depth is capacity+maxQueue+1.
	_, err := a.Acquire(context.Background())
	var she *ShedError
	if !errors.As(err, &she) {
		t.Fatalf("boundary acquire returned %v, want *ShedError", err)
	}
	if she.Depth != capacity+maxQueue+1 {
		t.Fatalf("ShedError.Depth = %d, want %d", she.Depth, capacity+maxQueue+1)
	}
	want := (time.Duration(maxQueue) * avg / capacity).Round(time.Second)
	inflated := (time.Duration(maxQueue+1) * avg / capacity).Round(time.Second)
	if she.RetryAfter == inflated {
		t.Fatalf("RetryAfter = %v still counts the rejected caller (want %v)", she.RetryAfter, want)
	}
	if she.RetryAfter != want {
		t.Fatalf("RetryAfter = %v, want %v", she.RetryAfter, want)
	}

	cancel()
	for _, rel := range releases {
		rel(time.Millisecond)
	}
	for i := 0; i < maxQueue; i++ {
		<-done
	}
}

// TestRetryAfterClamp pins the [1s, 60s] bounds: an empty EWMA answers the
// floor (never Retry-After: 0), and a pathological solve sample cannot
// push the estimate past a minute.
func TestRetryAfterClamp(t *testing.T) {
	a := NewAdmission(AdmitCap, 1, 0)
	if got := a.retryAfter(5); got != time.Second {
		t.Fatalf("cold retryAfter = %v, want 1s", got)
	}
	a.observe(50 * time.Millisecond) // first observation seeds the EWMA whole
	if avg := a.avgSolveNs.Load(); avg != int64(50*time.Millisecond) {
		t.Fatalf("EWMA after first observation = %d, want full sample", avg)
	}
	a.observe(10 * time.Minute) // pathological sample
	if got := a.retryAfter(1000); got != maxRetryAfter {
		t.Fatalf("huge retryAfter = %v, want clamp at %v", got, maxRetryAfter)
	}
	a2 := NewAdmission(AdmitCap, 4, 0)
	a2.observe(2 * time.Second)
	if got := a2.retryAfter(12); got < time.Second || got > maxRetryAfter {
		t.Fatalf("mid-range retryAfter = %v escaped [1s, 60s]", got)
	}
}

package sim

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"testing"
	"time"

	"rrq"
	"rrq/internal/faultinject"
	"rrq/internal/server"
)

func simIndex(t *testing.T, cacheSize int) (*rrq.Dataset, *rrq.Index) {
	t.Helper()
	ds := rrq.SyntheticDataset(rrq.Independent, 200, 2, 11)
	opts := []rrq.Option{rrq.WithAlgorithm(rrq.SweepingAlgo)}
	if cacheSize > 0 {
		opts = append(opts, rrq.WithResultCache(cacheSize))
	}
	ix, err := rrq.BuildIndex(ds, opts...)
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	return ds, ix
}

// simHandler builds the server Run drives: cfg over ix.
func simHandler(t *testing.T, ix *rrq.Index, cfg server.Config) http.Handler {
	t.Helper()
	cfg.Index = ix
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	return srv.Handler()
}

func TestGenerateDeterministic(t *testing.T) {
	ds, _ := simIndex(t, 0)
	w := Workload{Queries: 50, KMin: 2, KMax: 6, EpsLevels: []float64{0.05, 0.1, 0.2}, Repeat: 0.4, Seed: 7}
	a, b := w.Generate(ds), w.Generate(ds)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("stream lengths %d, %d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("query %d differs across same-seed generations:\n  %s\n  %s", i, a[i].Key(), b[i].Key())
		}
		if a[i].K < 2 || a[i].K > 6 {
			t.Fatalf("query %d rank %d outside [2,6]", i, a[i].K)
		}
	}
	other := Workload{Queries: 50, KMin: 2, KMax: 6, EpsLevels: []float64{0.05, 0.1, 0.2}, Repeat: 0.4, Seed: 8}.Generate(ds)
	diff := 0
	for i := range a {
		if a[i].Key() != other[i].Key() {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds generated identical streams")
	}
}

func TestGenerateRepeatsCreateLocality(t *testing.T) {
	ds, _ := simIndex(t, 0)
	qs := Workload{Queries: 100, KMin: 3, KMax: 5, EpsLevels: []float64{0.1}, Repeat: 0.6, Seed: 3}.Generate(ds)
	seen := make(map[string]bool)
	repeats := 0
	for _, q := range qs {
		if seen[q.Key()] {
			repeats++
		}
		seen[q.Key()] = true
	}
	if repeats < 20 {
		t.Fatalf("Repeat=0.6 produced only %d repeated queries out of 100", repeats)
	}
}

func TestClosedLoopAlwaysPolicySolvesEverything(t *testing.T) {
	ds, ix := simIndex(t, 256)
	qs := Workload{Queries: 60, KMin: 2, KMax: 5, EpsLevels: []float64{0.05, 0.1}, Repeat: 0.5, Seed: 1}.Generate(ds)
	rep, err := Run(context.Background(), Config{
		Handler: simHandler(t, ix, server.Config{Admission: server.NewAdmission(server.AdmitAlways, 2, 0)}),
		Queries: qs,
		Clients: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Solved != 60 || rep.Shed != 0 || rep.Failed != 0 {
		t.Fatalf("always policy: solved=%d shed=%d failed=%d, want 60/0/0", rep.Solved, rep.Shed, rep.Failed)
	}
	if rep.CacheHits == 0 {
		t.Fatalf("Repeat=0.5 workload over a cached index produced no cache hits: %+v", rep)
	}
	if rep.P50Ns <= 0 || rep.P99Ns < rep.P50Ns || rep.MaxNs < rep.P99Ns {
		t.Fatalf("implausible percentiles: p50=%d p99=%d max=%d", rep.P50Ns, rep.P99Ns, rep.MaxNs)
	}
	if rep.Policy != "always" {
		t.Fatalf("Policy = %q, want always", rep.Policy)
	}
}

func TestWarmCacheBeatsNoCache(t *testing.T) {
	ds, cold := simIndex(t, 0)
	_, warm := simIndex(t, 256)
	qs := Workload{Queries: 80, KMin: 2, KMax: 4, EpsLevels: []float64{0.1}, Repeat: 0.7, Seed: 5}.Generate(ds)
	run := func(ix *rrq.Index) Report {
		rep, err := Run(context.Background(), Config{
			Handler: simHandler(t, ix, server.Config{Admission: server.NewAdmission(server.AdmitAlways, 4, 0)}),
			Queries: qs,
			Clients: 4,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rep
	}
	coldRep, warmRep := run(cold), run(warm)
	if coldRep.CacheHits != 0 {
		t.Fatalf("no-cache index reported %d cache hits", coldRep.CacheHits)
	}
	if warmRep.CacheHits == 0 {
		t.Fatalf("cached index reported no hits on a Repeat=0.7 stream")
	}
	if coldRep.Solved != 80 || warmRep.Solved != 80 {
		t.Fatalf("solved %d/%d, want 80/80", coldRep.Solved, warmRep.Solved)
	}
}

func TestOpenLoopCapPolicySheds(t *testing.T) {
	ds, ix := simIndex(t, 0)
	qs := Workload{Queries: 40, KMin: 3, KMax: 6, EpsLevels: []float64{0.1}, Repeat: 0, Seed: 9}.Generate(ds)
	// One solve slot, zero queue, and — because a 200-point 2-d sweep
	// resolves in microseconds, faster than arrivals can pile up — a 20ms
	// injected delay per solve so requests genuinely overlap. At 20k
	// arrivals/s the whole stream lands while the first solve still holds
	// the slot: the cap policy must shed, and the outcomes must account
	// for every request.
	ctx := faultinject.ContextWith(context.Background(),
		faultinject.New(&faultinject.Fault{Point: faultinject.SolveStart, Delay: 20 * time.Millisecond}))
	rep, err := Run(ctx, Config{
		Handler:     simHandler(t, ix, server.Config{Admission: server.NewAdmission(server.AdmitCap, 1, 0)}),
		Queries:     qs,
		ArrivalRate: 20000,
		ArrivalSeed: 2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Solved + rep.Shed + rep.TenantRejected + rep.Failed; got != rep.Requests {
		t.Fatalf("outcomes %d don't sum to requests %d: %+v", got, rep.Requests, rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("cap policy with capacity=1 queue=0 at 20k arrivals/s shed nothing: %+v", rep)
	}
	if rep.ShedRate <= 0 || rep.ShedRate > 1 {
		t.Fatalf("shed rate %v out of range", rep.ShedRate)
	}
}

// With an anytime budget, requests the cap policy would shed are answered
// on the anytime tier and counted as Degraded instead.
func TestOpenLoopAnytimeDegradesInsteadOfShedding(t *testing.T) {
	ds, ix := simIndex(t, 0)
	qs := Workload{Queries: 40, KMin: 3, KMax: 6, EpsLevels: []float64{0.1}, Repeat: 0, Seed: 9}.Generate(ds)
	// Same overload shape as TestOpenLoopCapPolicySheds; only the
	// degradation knob differs.
	ctx := faultinject.ContextWith(context.Background(),
		faultinject.New(&faultinject.Fault{Point: faultinject.SolveStart, Delay: 20 * time.Millisecond}))
	rep, err := Run(ctx, Config{
		Handler: simHandler(t, ix, server.Config{
			Admission:     server.NewAdmission(server.AdmitCap, 1, 0),
			AnytimeBudget: 5 * time.Millisecond,
		}),
		Queries:     qs,
		ArrivalRate: 20000,
		ArrivalSeed: 2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Shed != 0 {
		t.Fatalf("anytime degradation left %d requests shed: %+v", rep.Shed, rep)
	}
	if rep.Degraded == 0 {
		t.Fatalf("overloaded run degraded nothing: %+v", rep)
	}
	if rep.Solved+rep.Failed != rep.Requests {
		t.Fatalf("outcomes don't sum to requests: %+v", rep)
	}
	if rep.Degraded > rep.Solved {
		t.Fatalf("degraded %d exceeds solved %d", rep.Degraded, rep.Solved)
	}
}

func TestTenantMeteringRejects(t *testing.T) {
	ds, ix := simIndex(t, 0)
	qs := Workload{Queries: 30, KMin: 5, KMax: 8, EpsLevels: []float64{0.2}, Repeat: 0, Seed: 4}.Generate(ds)
	// A starvation-level budget: one tenant, tiny burst, near-zero refill.
	// The first solve charges real work units and drives the balance
	// negative; later requests must be rejected.
	rep, err := Run(context.Background(), Config{
		Handler: simHandler(t, ix, server.Config{
			Admission: server.NewAdmission(server.AdmitAlways, 2, 0),
			Tenants:   server.NewTenantBudgets(0.001, 1),
		}),
		TenantCount: 1,
		Queries:     qs,
		Clients:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.TenantRejected == 0 {
		t.Fatalf("starved tenant was never rejected: %+v", rep)
	}
	if rep.Solved == 0 {
		t.Fatalf("no request solved before the budget drained: %+v", rep)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	_, ix := simIndex(t, 0)
	if _, err := Run(context.Background(), Config{Queries: []rrq.Query{{}}}); err == nil {
		t.Fatal("nil Handler accepted")
	}
	if _, err := Run(context.Background(), Config{Handler: simHandler(t, ix, server.Config{})}); err == nil {
		t.Fatal("empty query stream accepted")
	}
}

func TestRunRespectsContextCancel(t *testing.T) {
	ds, ix := simIndex(t, 0)
	qs := Workload{Queries: 200, KMin: 2, KMax: 4, EpsLevels: []float64{0.1}, Repeat: 0, Seed: 6}.Generate(ds)
	h := simHandler(t, ix, server.Config{Admission: server.NewAdmission(server.AdmitAlways, 1, 0)})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Report, 1)
	go func() {
		rep, _ := Run(ctx, Config{
			Handler: h,
			Queries: qs,
			Clients: 2,
		})
		done <- rep
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after context cancel")
	}
}

// solveOutcome is one /v1/solve answer as its client sees it.
type solveOutcome struct {
	Status                    int
	Kind, Tier, Cache, Reason string
}

// recordSolves wraps h, appending the outcome of every /v1/solve response
// to *log. Run with Clients: 1 issues requests one at a time, so the log is
// the stream order.
func recordSolves(h http.Handler, log *[]solveOutcome) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if r.URL.Path == "/v1/solve" {
			var body struct {
				Kind, Tier, Cache string
				Degraded          *struct{ Reason string }
			}
			_ = json.Unmarshal(rec.Body.Bytes(), &body)
			oc := solveOutcome{Status: rec.Code, Kind: body.Kind, Tier: body.Tier, Cache: body.Cache}
			if body.Degraded != nil {
				oc.Reason = body.Degraded.Reason
			}
			*log = append(*log, oc)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// The simulator's outcomes are the server's: one seeded stream gives the
// same per-request (status, kind, tier, cache, degraded reason) driven
// in-process through sim.Run and driven through a reverse proxy to a
// loopback server built from the same Config. The stream exercises the
// result cache, the timeout rung of the anytime ladder and tenant metering.
func TestInProcessMatchesLoopback(t *testing.T) {
	ds := rrq.SyntheticDataset(rrq.Independent, 200, 2, 11)
	qs := Workload{Queries: 40, KMin: 2, KMax: 4, EpsLevels: []float64{0.05, 0.1}, Repeat: 0.5, Seed: 12}.Generate(ds)
	// Stall the exact solve of two query points past the query timeout so
	// the anytime rung answers them.
	slow := [][]float64{qs[1].Q, qs[6].Q}

	// The injector rides each request's context, the way faults reach a
	// solve behind rrqd's handler.
	newHandler := func() http.Handler {
		ix, err := rrq.BuildIndex(ds,
			rrq.WithAlgorithm(rrq.SweepingAlgo),
			rrq.WithQueryTimeout(50*time.Millisecond),
			rrq.WithResultCache(64))
		if err != nil {
			t.Fatalf("BuildIndex: %v", err)
		}
		var faults []*faultinject.Fault
		for _, p := range slow {
			faults = append(faults, &faultinject.Fault{Point: faultinject.SolveStart,
				Match: faultinject.MatchPoint(p), Delay: 120 * time.Millisecond})
		}
		inj := faultinject.New(faults...)
		srv, err := server.New(server.Config{
			Index:         ix,
			Admission:     server.NewAdmission(server.AdmitAlways, 2, 8),
			AnytimeBudget: 5 * time.Millisecond,
			// Every tenant's first solve overdraws this burst, so each of
			// the 28 tenants is served once and rejected afterwards,
			// whatever its solve cost.
			Tenants: server.NewTenantBudgets(0.001, 0.5),
		})
		if err != nil {
			t.Fatalf("server.New: %v", err)
		}
		h := srv.Handler()
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r.WithContext(faultinject.ContextWith(r.Context(), inj)))
		})
	}
	run := func(h http.Handler) ([]solveOutcome, Report) {
		var log []solveOutcome
		rep, err := Run(context.Background(), Config{
			Handler: recordSolves(h, &log), Queries: qs, Clients: 1, TenantCount: 28,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return log, rep
	}

	inLog, inRep := run(newHandler())
	ts := httptest.NewServer(newHandler())
	defer ts.Close()
	u, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	loopLog, loopRep := run(httputil.NewSingleHostReverseProxy(u))

	if len(inLog) != len(qs) || len(loopLog) != len(qs) {
		t.Fatalf("recorded %d in-process and %d loopback answers, want %d", len(inLog), len(loopLog), len(qs))
	}
	for i := range inLog {
		if inLog[i] != loopLog[i] {
			t.Errorf("request %d: in-process %+v, loopback %+v", i, inLog[i], loopLog[i])
		}
	}
	counts := func(r Report) [6]int {
		return [6]int{r.Solved, r.Shed, r.Degraded, r.TenantRejected, r.Failed, r.CacheHits}
	}
	if counts(inRep) != counts(loopRep) {
		t.Errorf("reports differ:\n  in-process %+v\n  loopback   %+v", inRep, loopRep)
	}

	var hits, timeouts, rejected int
	for _, oc := range inLog {
		switch {
		case oc.Cache == "hit":
			hits++
		case oc.Reason == "timeout":
			timeouts++
		case oc.Status == http.StatusTooManyRequests && oc.Kind == "budget":
			rejected++
		}
	}
	if hits == 0 || timeouts == 0 || rejected == 0 {
		t.Fatalf("stream lacks a case: %d hits, %d timeout degradations, %d tenant rejections\n%+v",
			hits, timeouts, rejected, inLog)
	}
	if inRep.Degraded != timeouts || inRep.TenantRejected != rejected || inRep.CacheHits != hits {
		t.Fatalf("report %+v disagrees with the responses: %d hits, %d degraded, %d rejected",
			inRep, hits, timeouts, rejected)
	}
}

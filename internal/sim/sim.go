// Package sim is the closed-loop workload simulator for the serving stack:
// it drives rrqd's own HTTP handler (server.Handler, called in-process with
// no sockets) with a seeded stream of mixed (k, ε) queries and reports
// per-policy latency percentiles, shed rate and cache effectiveness. Every
// outcome is read from the server's response, so admission, tenant
// metering, singleflight, the cache and the anytime rung behave exactly as
// rrqd deploys them.
//
// Two arrival models are supported. The closed loop (default) runs a fixed
// number of clients, each issuing its next query as soon as the previous
// one resolves — throughput self-limits to what the index sustains. The
// open loop spawns arrivals at a fixed rate with exponential interarrival
// gaps regardless of completions, which is what actually overloads a server
// and makes the "always" vs "cap" admission policies diverge.
package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"rrq"
)

// Workload describes a seeded query stream over a dataset: mixed ranks
// drawn from [KMin, KMax], tolerances drawn from the quantized EpsLevels
// (quantization is deliberate — it makes exact cache hits possible), and a
// Repeat probability of re-issuing an earlier query verbatim, the locality
// knob that separates warm-cache from cold-cache scenarios.
type Workload struct {
	Queries   int       // stream length
	KMin      int       // inclusive rank range...
	KMax      int       // ...mixed per query
	EpsLevels []float64 // quantized regret tolerances
	Repeat    float64   // probability a query repeats an earlier one
	Seed      int64     // stream seed; same seed, same stream
}

// Generate materializes the deterministic query stream.
func (w Workload) Generate(ds *rrq.Dataset) []rrq.Query {
	if w.Queries <= 0 {
		return nil
	}
	kmin, kmax := w.KMin, w.KMax
	if kmin <= 0 {
		kmin = 1
	}
	if kmax < kmin {
		kmax = kmin
	}
	levels := w.EpsLevels
	if len(levels) == 0 {
		levels = []float64{0.1}
	}
	rng := rand.New(rand.NewSource(w.Seed))
	qs := make([]rrq.Query, 0, w.Queries)
	for i := 0; i < w.Queries; i++ {
		if len(qs) > 0 && rng.Float64() < w.Repeat {
			qs = append(qs, qs[rng.Intn(len(qs))])
			continue
		}
		qs = append(qs, rrq.Query{
			Q:       ds.RandomQuery(w.Seed + int64(i)*7919),
			K:       kmin + rng.Intn(kmax-kmin+1),
			Epsilon: levels[rng.Intn(len(levels))],
		})
	}
	return qs
}

// Config wires one simulation run. Handler and Queries are required;
// everything else defaults sensibly.
type Config struct {
	// Handler serves the requests: a server.Handler(), or anything that
	// forwards to one (a reverse proxy to a running rrqd).
	Handler http.Handler

	Queries []rrq.Query

	// Clients is the closed-loop concurrency (default 1). Ignored when
	// ArrivalRate selects the open loop.
	Clients int

	// ArrivalRate > 0 switches to the open loop: arrivals per second with
	// exponential interarrival gaps seeded by ArrivalSeed.
	ArrivalRate float64
	ArrivalSeed int64

	// TenantCount spreads requests round-robin over this many synthetic
	// tenants ("t0", "t1", ...), which the server meters when it has
	// tenant budgets. Default 1.
	TenantCount int
}

// Report aggregates one run. Latency percentiles cover completed solves
// only and span the whole handler call — decode, queue wait, solve and
// encode: the latency a client actually observed.
type Report struct {
	Policy         string  `json:"policy"`
	Requests       int     `json:"requests"`
	Solved         int     `json:"solved"`
	Shed           int     `json:"shed"`
	Degraded       int     `json:"degraded"`
	TenantRejected int     `json:"tenant_rejected"`
	Failed         int     `json:"failed"`
	CacheHits      int     `json:"cache_hits"`
	ElapsedNs      int64   `json:"elapsed_ns"`
	P50Ns          int64   `json:"p50_ns"`
	P99Ns          int64   `json:"p99_ns"`
	MeanNs         int64   `json:"mean_ns"`
	MaxNs          int64   `json:"max_ns"`
	QPS            float64 `json:"solved_per_sec"`
	ShedRate       float64 `json:"shed_rate"`
}

// outcome codes recorded per request slot.
const (
	ocPending = iota
	ocSolved
	ocSolvedCacheHit
	ocSolvedDegraded
	ocShed
	ocTenantRejected
	ocFailed
)

// runner owns the per-request slots; slot i is written only by the
// goroutine that claimed query i, so aggregation needs no locks.
type runner struct {
	cfg     Config
	outcome []uint8
	latNs   []int64
}

// Run replays cfg.Queries through cfg.Handler and aggregates the outcome.
// The context cancels the whole run and rides every request.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Handler == nil {
		return Report{}, errors.New("sim: Config.Handler is required")
	}
	if len(cfg.Queries) == 0 {
		return Report{}, errors.New("sim: empty query stream")
	}
	policy, err := serverPolicy(ctx, cfg.Handler)
	if err != nil {
		return Report{}, err
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.TenantCount <= 0 {
		cfg.TenantCount = 1
	}
	r := &runner{
		cfg:     cfg,
		outcome: make([]uint8, len(cfg.Queries)),
		latNs:   make([]int64, len(cfg.Queries)),
	}

	start := time.Now()
	if cfg.ArrivalRate > 0 {
		r.openLoop(ctx)
	} else {
		r.closedLoop(ctx)
	}
	rep := r.report(time.Since(start))
	rep.Policy = policy
	return rep, nil
}

// serverPolicy reads the admission policy the handler's server runs from
// GET /v1/stats.
func serverPolicy(ctx context.Context, h http.Handler) (string, error) {
	rec := serve(ctx, h, http.MethodGet, "/v1/stats", nil)
	var stats struct {
		Server struct{ Policy string } `json:"server"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); rec.Code != http.StatusOK || err != nil {
		return "", fmt.Errorf("sim: GET /v1/stats: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return stats.Server.Policy, nil
}

// serve issues one in-process request to h under ctx.
func serve(ctx context.Context, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)).WithContext(ctx))
	return rec
}

// closedLoop runs Clients workers, each claiming the next unclaimed query
// as soon as its previous request resolves.
func (r *runner) closedLoop(ctx context.Context) {
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range r.cfg.Queries {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r.do(ctx, i)
			}
		}()
	}
	wg.Wait()
}

// openLoop spawns one goroutine per arrival, paced by seeded exponential
// interarrival gaps, regardless of how many requests are still in flight.
func (r *runner) openLoop(ctx context.Context) {
	rng := rand.New(rand.NewSource(r.cfg.ArrivalSeed))
	var wg sync.WaitGroup
	for i := range r.cfg.Queries {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.do(ctx, i)
		}(i)
		gap := time.Duration(rng.ExpFloat64() / r.cfg.ArrivalRate * float64(time.Second))
		select {
		case <-time.After(gap):
		case <-ctx.Done():
		}
	}
	wg.Wait()
}

// solveBody is the /v1/solve request body.
type solveBody struct {
	Q       []float64 `json:"q"`
	K       int       `json:"k"`
	Epsilon float64   `json:"epsilon"`
	Tenant  string    `json:"tenant"`
}

// do issues request i as a /v1/solve call and records what the server
// answered.
func (r *runner) do(ctx context.Context, i int) {
	q := r.cfg.Queries[i]
	// Marshal fails only on a NaN or infinite coordinate; the empty body
	// it leaves is a 400 the server counts as failed, like the query.
	body, _ := json.Marshal(solveBody{Q: q.Q, K: q.K, Epsilon: q.Epsilon,
		Tenant: "t" + strconv.Itoa(i%r.cfg.TenantCount)})
	start := time.Now()
	rec := serve(ctx, r.cfg.Handler, http.MethodPost, "/v1/solve", body)
	r.latNs[i] = time.Since(start).Nanoseconds()
	r.outcome[i] = classify(rec)
}

// classify reads one /v1/solve response's outcome. A budget 429 with
// Retry-After is a tenant rejection: the tenant meter always sets the
// header, a solver work-budget failure never does (retrying the same query
// cannot help).
func classify(rec *httptest.ResponseRecorder) uint8 {
	var reply struct {
		Cache    string          `json:"cache"`
		Degraded json.RawMessage `json:"degraded"`
		Kind     string          `json:"kind"`
	}
	ok := json.Unmarshal(rec.Body.Bytes(), &reply) == nil && rec.Code == http.StatusOK
	switch {
	case ok && reply.Degraded != nil:
		return ocSolvedDegraded
	case ok && reply.Cache == "hit":
		return ocSolvedCacheHit
	case ok:
		return ocSolved
	case rec.Code == http.StatusTooManyRequests && reply.Kind == "shed":
		return ocShed
	case rec.Code == http.StatusTooManyRequests && reply.Kind == "budget" && rec.Header().Get("Retry-After") != "":
		return ocTenantRejected
	default:
		return ocFailed
	}
}

// report folds the per-slot outcomes into the aggregate.
func (r *runner) report(elapsed time.Duration) Report {
	rep := Report{
		Requests:  len(r.cfg.Queries),
		ElapsedNs: elapsed.Nanoseconds(),
	}
	var lats []int64
	for i, oc := range r.outcome {
		switch oc {
		case ocSolved, ocSolvedCacheHit, ocSolvedDegraded:
			rep.Solved++
			lats = append(lats, r.latNs[i])
			if oc == ocSolvedCacheHit {
				rep.CacheHits++
			} else if oc == ocSolvedDegraded {
				rep.Degraded++
			}
		case ocShed:
			rep.Shed++
		case ocTenantRejected:
			rep.TenantRejected++
		default:
			rep.Failed++
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		var sum int64
		for _, l := range lats {
			sum += l
		}
		rep.P50Ns = percentile(lats, 0.50)
		rep.P99Ns = percentile(lats, 0.99)
		rep.MeanNs = sum / int64(len(lats))
		rep.MaxNs = lats[len(lats)-1]
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Solved) / elapsed.Seconds()
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	return rep
}

// percentile reads the p-quantile from an ascending-sorted slice by the
// nearest-rank method.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// String renders the report as the one-line summary rrqsim prints.
func (rep Report) String() string {
	return fmt.Sprintf(
		"policy=%s requests=%d solved=%d shed=%d (%.0f%%) degraded=%d rejected=%d failed=%d cache=%d p50=%v p99=%v qps=%.0f",
		rep.Policy, rep.Requests, rep.Solved, rep.Shed, 100*rep.ShedRate, rep.Degraded,
		rep.TenantRejected, rep.Failed, rep.CacheHits,
		time.Duration(rep.P50Ns).Round(time.Microsecond),
		time.Duration(rep.P99Ns).Round(time.Microsecond),
		rep.QPS)
}

package main

import (
	"fmt"
	"math"
	"time"
)

// report is one run of one workload.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]sample
	spans             []span // traced runs only
}

// runWorkload runs w once. The untraced phase gives the end-to-end
// metrics; when traced, a second phase on a fresh server replays the same
// stream with spans recorded and gives the per-layer metrics, and
// keepSpans keeps every span in the report.
func runWorkload(tmp string, w workload, seed int64, minSetups int, traced, keepSpans bool) (*report, error) {
	in, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	base, err := runPhase(tmp, w, in, minSetups, false)
	if err != nil {
		return nil, err
	}
	r := &report{metrics: endToEndMetrics(in, base)}
	r.tally(base)
	if !traced {
		return r, nil
	}
	tp, err := runPhase(tmp, w, in, 1, true)
	if err != nil {
		return nil, err
	}
	r.tally(tp)
	layers, spans, problems := layerMetrics(in, tp, keepSpans)
	for k, v := range layers {
		r.metrics[k] = v
	}
	tracedRPS := endToEndMetrics(in, tp)["throughput_rps"].value
	r.metrics["trace.overhead_ratio"] = sample{value: ratio(tracedRPS, r.metrics["throughput_rps"].value)}
	r.spans = spans
	r.problems = append(r.problems, problems...)
	return r, nil
}

func (r *report) tally(p *phase) {
	r.attempted += len(p.res)
	for _, x := range p.res {
		if !x.ok() {
			r.failed++
		}
	}
	r.problems = append(r.problems, p.problems...)
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func pct(xs []float64, p float64) sample {
	v, beyond := nearestRank(xs, p)
	return sample{value: v, n: len(xs), beyond: beyond}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// endToEndMetrics computes what a client of the untraced phase saw: the
// bounded end-to-end metrics and the client timings (see metrics.go).
func endToEndMetrics(in *inputs, p *phase) map[string]sample {
	var lat, writes []float64
	ok := 0
	for i, r := range p.res {
		if !r.ok() {
			continue
		}
		ok++
		ms := float64(r.end-r.start) / 1e6
		if in.stream[i].op == opSolve {
			lat = append(lat, ms)
		} else {
			writes = append(writes, ms)
		}
	}
	var wall time.Duration
	for _, d := range p.walls {
		wall += d
	}
	m := map[string]sample{
		"setup_s":          {value: median(seconds(p.setups)), n: len(p.setups)},
		"heap_live_mb":     {value: p.heapMB, n: len(p.walls)},
		"alloc_kb_per_req": {value: p.allocKB, n: len(p.res)},
		"throughput_rps":   {value: float64(ok) / wall.Seconds(), n: ok},
		"read_p50_ms":      pct(lat, 50),
		"read_p99_ms":      pct(lat, 99),
		"error_ratio":      {value: ratio(float64(len(p.res)-ok), float64(len(p.res))), n: len(p.res)},
	}
	if len(writes) > 0 {
		m["write_p50_ms"] = pct(writes, 50)
	}
	return m
}

// layerMetrics joins the traced phase's client spans, handler spans and
// reported solve times per request, checks solve ≤ handler ≤ client, and
// computes the per-layer metrics except trace.overhead_ratio, which needs
// the untraced phase too. With keep, it also returns every span.
func layerMetrics(in *inputs, p *phase, keep bool) (map[string]sample, []span, []string) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var transport, handler, self, selfHit, hitUS, solveUS, respBytes, writes []float64
	var spans []span
	var problems []string
	unnested := 0
	for i, r := range p.res {
		if !r.ok() {
			continue
		}
		if !p.spans.done[i] {
			problems = append(problems, fmt.Sprintf("request %d: no handler span", i))
			continue
		}
		c := span{Req: i, Name: "client", Start: r.start, End: r.end}
		h := p.spans.spans[i]
		if keep {
			spans = append(spans, c, h)
		}
		if h.Start < c.Start || h.End > c.End {
			unnested++
		}
		if in.stream[i].op != opSolve {
			writes = append(writes, float64(c.dur())/1e6)
			continue
		}
		if r.head.Tier != "exact" {
			problems = append(problems, fmt.Sprintf("request %d: tier %q, want exact", i, r.head.Tier))
		}
		transport = append(transport, us(selfTime(c, []span{h})))
		handler = append(handler, us(h.dur()))
		respBytes = append(respBytes, float64(r.bytes))
		if r.head.Deduped {
			// The solve belonged to a concurrent identical request; this
			// handler only waited for it.
			self = append(self, us(h.dur()))
			continue
		}
		// The reply reports only the solve's duration, so its span is
		// placed at the handler's start.
		s := span{Req: i, Name: "solve", Parent: "handler", Start: h.Start,
			End: h.Start + int64(math.Round(r.head.ElapsedMS*1e6))}
		if keep {
			spans = append(spans, s)
		}
		if s.dur() > h.dur() {
			unnested++
		}
		sf := us(selfTime(h, []span{s}))
		self = append(self, sf)
		switch r.head.Cache {
		case "hit":
			selfHit = append(selfHit, sf)
			hitUS = append(hitUS, us(s.dur()))
		case "miss":
			solveUS = append(solveUS, us(s.dur()))
		}
	}
	if unnested > 0 {
		problems = append(problems, fmt.Sprintf("%d requests break solve ≤ handler ≤ client", unnested))
	}

	cnt := func(k string) float64 { return float64(p.counters[k]) }
	tmean := func(k string) float64 {
		t := p.timers[k]
		return ratio(float64(t.Total)/1e3, float64(t.Count))
	}
	val := func(v float64) sample { return sample{value: v} }
	lib := p.lib
	perSolve := func(x float64) sample { return sample{value: ratio(x, float64(lib.solves)), n: lib.solves} }
	planeHits := float64(p.after.PlaneHits - p.before.PlaneHits)
	planeMisses := float64(p.after.PlaneMisses - p.before.PlaneMisses)
	entries := 0
	if p.after.Cache != nil {
		entries = p.after.Cache.Entries
	}
	hits, misses := cnt("cache.hit"), cnt("cache.miss")

	m := map[string]sample{
		"http.transport_us_p50":          pct(transport, 50),
		"http.transport_us_p99":          pct(transport, 99),
		"http.resp_bytes_mean":           {value: mean(respBytes), n: len(respBytes)},
		"http.write_p50_ms":              pct(writes, 50),
		"server.handler_us_p50":          pct(handler, 50),
		"server.handler_us_p99":          pct(handler, 99),
		"server.self_us_p50":             pct(self, 50),
		"server.self_us_mean":            {value: mean(self), n: len(self)},
		"server.self_hit_us_p50":         pct(selfHit, 50),
		"server.dedup_ratio":             val(ratio(cnt("server.dedup"), cnt("server.requests"))),
		"admission.rejected":             val(cnt("server.shed") + cnt("server.tier_degraded") + cnt("server.tenant_rejected")),
		"cache.hit_ratio":                val(ratio(hits, hits+misses)),
		"cache.hit_us_p50":               pct(hitUS, 50),
		"cache.entries":                  val(float64(entries)),
		"index.solve_us_p50":             pct(solveUS, 50),
		"index.solve_us_p99":             pct(solveUS, 99),
		"index.plane_hit_ratio":          val(ratio(planeHits, planeHits+planeMisses)),
		"index.build_s":                  {value: median(seconds(p.builds)), n: len(p.builds)},
		"index.maintain_us_mean":         val(tmean("phase.index.maintain")),
		"core.ept.planes_us_mean":        val(tmean("phase.ept.planes")),
		"core.ept.insert_us_mean":        val(tmean("phase.ept.insert")),
		"core.ept.collect_us_mean":       val(tmean("phase.ept.collect")),
		"core.sweep.planes_us_mean":      val(tmean("phase.sweep.planes")),
		"core.sweep.sweep_us_mean":       val(tmean("phase.sweep.sweep")),
		"core.planes_built_per_solve":    perSolve(float64(lib.planesBuilt)),
		"core.planes_inserted_per_solve": perSolve(float64(lib.planesInserted)),
		"core.splits_per_solve":          perSolve(float64(lib.splits)),
		"core.pieces_per_solve":          perSolve(float64(lib.pieces)),
		"core.allocs_per_solve":          perSolve(float64(lib.allocs)),
		"core.bytes_per_solve":           perSolve(float64(lib.bytes)),
		"core.marshal_us_mean":           perSolve(float64(lib.marshal) / 1e3),
		"wal.sync_us_per_append":         val(ratio(cnt("wal.sync_ns")/1e3, cnt("wal.appends"))),
		"wal.appends":                    val(cnt("wal.appends")),
		"wal.checkpoints":                val(cnt("checkpoint.writes")),
		"wal.recover_s":                  val(p.recover.Seconds()),
	}
	return m, spans, problems
}

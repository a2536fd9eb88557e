package main

import (
	"fmt"
	"strings"
	"testing"

	"rrq"
)

// A tiny read-only workload, untraced then traced, passes the correctness
// gate and reports every metric.
func TestSmokeReadOnly(t *testing.T) {
	w := tiny()
	r, err := runWorkload(t.TempDir(), w, 11, 2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("gate failed: %d failed, problems %v", r.failed, r.problems)
	}
	if r.attempted != 2*w.requests {
		t.Fatalf("attempted %d, want %d (untraced + traced)", r.attempted, 2*w.requests)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, ok := r.metrics[d.name]; !ok {
			t.Errorf("metric %s missing", d.name)
		}
	}
	for _, name := range []string{"throughput_rps", "read_p50_ms", "read_p99_ms", "setup_s", "heap_live_mb", "alloc_kb_per_req"} {
		if r.metrics[name].value <= 0 {
			t.Errorf("%s = %v, want > 0", name, r.metrics[name].value)
		}
	}
	if n := r.metrics["server.handler_us_p50"].n; n != w.requests {
		t.Errorf("handler spans for %d requests, want %d", n, w.requests)
	}
	kinds := make(map[string]int)
	for _, s := range r.spans {
		kinds[s.Name]++
	}
	// Deduped replies share another request's solve and carry no solve span.
	if kinds["client"] != w.requests || kinds["handler"] != w.requests || kinds["solve"] > w.requests || kinds["solve"] == 0 {
		t.Errorf("spans %v, want a client and a handler span per request and at most one solve span", kinds)
	}
}

// A tiny durable workload with writes passes the gate: the served version
// counts the acknowledged writes and the reopened WAL directory recovers
// them.
func TestSmokeDurableWrites(t *testing.T) {
	w := tiny()
	w.durable, w.writes, w.clients = true, 0.2, 1
	r, err := runWorkload(t.TempDir(), w, 12, 1, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct() {
		t.Fatalf("gate failed: %d failed, problems %v", r.failed, r.problems)
	}
	if r.metrics["write_p50_ms"].n == 0 || r.metrics["wal.appends"].value == 0 || r.metrics["wal.recover_s"].value <= 0 {
		t.Fatalf("writes not measured: write_p50_ms %+v, wal.appends %+v, wal.recover_s %+v",
			r.metrics["write_p50_ms"], r.metrics["wal.appends"], r.metrics["wal.recover_s"])
	}
}

// The gate fails when the server answers from another dataset than the
// reference.
func TestGateCatchesWrongAnswers(t *testing.T) {
	w := tiny()
	in, err := generate(w, 21)
	if err != nil {
		t.Fatal(err)
	}
	in.ds = rrq.SyntheticDataset(rrq.Independent, w.n, w.dim, datasetSeed+1)
	p, err := runPhase(t.TempDir(), w, in, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.problems) == 0 {
		t.Fatal("answers from another dataset passed the gate")
	}
	if !strings.Contains(strings.Join(p.problems, "\n"), "differs from the library's") {
		t.Fatalf("problems %v, want a region mismatch", p.problems)
	}
}

// With writes, one client gives every read a fixed epoch and cache state,
// so the cache and write counts repeat exactly; several clients are
// refused, since the gate's mirror needs the writes in stream order.
func TestWriteCountsRepeat(t *testing.T) {
	w := tiny()
	w.writes, w.requests = 0.2, 300
	in, err := generate(w, 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runPhase(t.TempDir(), w, in, 1, false); err == nil {
		t.Fatal("writes with 2 clients were accepted")
	}
	w.clients = 1
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]int64
	for range 3 {
		p, err := runPhase(t.TempDir(), w, in, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.problems) > 0 {
			t.Fatalf("gate failed: %v", p.problems)
		}
		got := map[string]int64{}
		for _, k := range []string{"cache.hit", "cache.miss", "server.dedup", "index.inserts", "index.deletes"} {
			got[k] = p.counters[k]
		}
		if first == nil {
			first = got
		} else if fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("counts %v, then %v", first, got)
		}
	}
	if first["cache.hit"] == 0 || first["index.inserts"] == 0 {
		t.Fatalf("counts %v: want hits and inserts to compare", first)
	}
}

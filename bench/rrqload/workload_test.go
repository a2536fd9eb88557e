package main

import (
	"bytes"
	"testing"

	"rrq"
)

// tiny is a workload small enough for unit tests.
func tiny() workload {
	return workload{name: "tiny", n: 200, dim: 3, algo: rrq.EPTAlgo, cache: 16,
		kmin: 1, kmax: 4, eps: []float64{0.1, 0.2}, pool: 16, clients: 2, requests: 50}
}

func sameRequests(a, b []request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].op != b[i].op || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestStreamIsSeeded(t *testing.T) {
	w := tiny()
	w.pool, w.requests, w.writes, w.clients = 32, 400, 0.1, 1
	a, err := generate(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(w, 1)
	c, _ := generate(w, 2)
	if !sameRequests(a.stream, b.stream) || !sameRequests(a.warm, b.warm) {
		t.Fatal("the same seed generated different requests")
	}
	if sameRequests(a.stream, c.stream) || sameRequests(a.warm, c.warm) {
		t.Fatal("different seeds generated the same requests")
	}
	if len(a.stream) != w.requests {
		t.Fatalf("%d timed requests, want %d", len(a.stream), w.requests)
	}
	writes := 0
	for _, r := range a.stream {
		if r.op != opSolve {
			writes++
		}
	}
	if writes == 0 || writes > w.requests/5 {
		t.Fatalf("%d writes in %d requests, want about 10%%", writes, w.requests)
	}
}

// The blocks tile the stream in order; with writes, every block but the
// last ends with a write, so the heap is never read beside a full cache.
func TestBlocks(t *testing.T) {
	for _, writes := range []float64{0, 0.1} {
		w := tiny()
		w.pool, w.requests, w.writes, w.clients = 32, 400, writes, 1
		in, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(in.blocks) < maxBlocks/2 || len(in.blocks) > maxBlocks {
			t.Fatalf("writes %v: %d blocks, want about %d", writes, len(in.blocks), maxBlocks)
		}
		next := 0
		for i, b := range in.blocks {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("writes %v: block %d is %v after %d", writes, i, b, next)
			}
			if writes > 0 && i < len(in.blocks)-1 && in.stream[b[1]-1].op == opSolve {
				t.Fatalf("block %d ends with a read", i)
			}
			next = b[1]
		}
		if next != len(in.stream) {
			t.Fatalf("writes %v: blocks end at %d of %d requests", writes, next, len(in.stream))
		}
	}
}

// The pool is the deployment's: it does not change with the seed.
func TestZipfPool(t *testing.T) {
	w := tiny()
	w.pool, w.requests = 32, 400
	in, err := generate(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := generate(w, 4)
	for i := range w.pool {
		if in.queries[i].Key() != other.queries[i].Key() {
			t.Fatalf("pool rank %d: %s with seed 3, %s with seed 4", i, in.queries[i].Key(), other.queries[i].Key())
		}
	}
	counts := make(map[int]int)
	for _, r := range in.stream {
		counts[r.query]++
	}
	top, bottom := 0, 0
	for qi, n := range counts {
		switch {
		case qi >= w.pool:
			t.Fatalf("read of query %d, outside the %d-query pool", qi, w.pool)
		case qi < w.pool/4:
			top += n
		case qi >= w.pool*3/4:
			bottom += n
		}
	}
	if top < 2*bottom {
		t.Fatalf("the first quarter of the ranks got %d reads, the last %d: want Zipf skew", top, bottom)
	}
	// Warm-up queries are fresh, so they never warm the cache for timed ones.
	for _, r := range in.warm {
		if counts[r.query] > 0 {
			t.Fatalf("warm-up query %d is also timed", r.query)
		}
	}
	if len(in.sample) != len(counts) {
		t.Fatalf("sample of %d, want all %d distinct timed queries", len(in.sample), len(counts))
	}
}

func TestDistinctReadsWithoutPool(t *testing.T) {
	w := tiny()
	w.pool, w.requests = 0, 100
	in, err := generate(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range append(in.warm, in.stream...) {
		key := in.queries[r.query].Key()
		if seen[key] {
			t.Fatalf("query %s sent twice", key)
		}
		seen[key] = true
	}
	if len(in.sample) != sampleSize {
		t.Fatalf("sample of %d, want %d", len(in.sample), sampleSize)
	}
}

func TestMirrorAppliesAcknowledgedWritesInOrder(t *testing.T) {
	ds, err := rrq.NewDataset([][]float64{{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	stream := []request{
		{op: opInsert, point: []float64{0.4, 0.4}},
		{op: opSolve},
		{op: opDelete, index: 0},
		{op: opInsert, point: []float64{0.5, 0.5}}, // not acknowledged
		{op: opDelete, index: 1},
	}
	res := []result{{status: 200}, {status: 200}, {status: 200}, {status: 503}, {status: 200}}
	pts, acked := mirror(ds, stream, res)
	if acked != 3 {
		t.Fatalf("acked = %d, want 3", acked)
	}
	want := [][]float64{{0.2, 0.2}, {0.4, 0.4}}
	if len(pts) != len(want) {
		t.Fatalf("mirror = %v, want %v", pts, want)
	}
	for i := range want {
		if pts[i][0] != want[i][0] || pts[i][1] != want[i][1] {
			t.Fatalf("mirror = %v, want %v", pts, want)
		}
	}
}

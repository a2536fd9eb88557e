package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rrq"
)

// phase is one pass of a workload's stream on a fresh server: set-up,
// warm-up, the timed closed loop and the correctness gate.
type phase struct {
	setups, builds []time.Duration
	walls          []time.Duration // the timed closed loop, per block of the stream
	res            []result        // one per stream request
	spans          *handlerSpans   // traced phases only
	heapMB         float64         // live heap growth since set-up, median over the block ends
	allocKB        float64         // bytes the process allocated in the timed loop, per request, in KB

	// Registry counter and timer deltas, and /v1/stats, around the timed loop.
	counters      map[string]int64
	timers        map[string]rrq.TimerSnapshot
	before, after rrq.IndexStats

	recover  time.Duration // reopening the WAL directory (durable only)
	lib      libStats      // measured reference solves (traced only)
	problems []string      // correctness-gate failures
}

// Set-up repeats at least minSetups times and until setupBudget is spent,
// at most maxSetups times; setup_s is the median.
const (
	setupBudget = 2 * time.Second
	maxSetups   = 9
)

// runPhase runs the stream once. The server is set up several times and
// the last set-up serves; heap growth is measured from just before it.
func runPhase(tmp string, w workload, in *inputs, minSetups int, traced bool) (*phase, error) {
	if w.writes > 0 && w.clients != 1 {
		return nil, fmt.Errorf("%s: a workload with writes needs exactly 1 client, has %d", w.name, w.clients)
	}
	p := &phase{res: make([]result, len(in.stream))}
	epoch := time.Now()
	var wrap func(http.Handler) http.Handler
	if traced {
		p.spans = newHandlerSpans(len(in.stream), epoch)
		wrap = p.spans.wrap
	}
	var (
		inst     *instance
		dir      string
		baseline float64
		spent    time.Duration
	)
	for done := 0; ; done++ {
		last := done+1 >= minSetups &&
			(done == 0 || done+1 == maxSetups || spent+spent/time.Duration(done) >= setupBudget)
		// Every set-up starts from a collected heap, as in a fresh process,
		// so it does not pay for the garbage of the one before.
		baseline = float64(collected().HeapAlloc)
		var err error
		if dir, err = walDir(tmp, w); err != nil {
			return nil, err
		}
		if inst, err = start(w, dir, wrap); err != nil {
			removeDir(dir)
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		p.setups = append(p.setups, inst.setup)
		p.builds = append(p.builds, inst.build)
		spent += inst.setup
		if last {
			break
		}
		err = inst.stop()
		removeDir(dir)
		if err != nil {
			return nil, err
		}
	}
	defer removeDir(dir)
	stopped := false
	defer func() {
		if !stopped {
			_ = inst.stop() // error path: the run already failed
		}
	}()

	c := newClient(w.clients)
	defer c.CloseIdleConnections()
	warm := make([]result, len(in.warm))
	drive(c, inst.url, in.warm, warm, 0, w.clients, false, epoch)
	for _, r := range warm {
		if !r.ok() {
			return nil, fmt.Errorf("%s: warm-up request failed: status %d, %v", w.name, r.status, r.err)
		}
	}

	var err error
	if p.before, err = inst.indexStats(c); err != nil {
		return nil, err
	}
	c0, t0 := inst.reg.Counters(), inst.reg.Timers()
	var heaps []float64
	m0 := collected()
	m := m0
	for _, b := range in.blocks {
		t := time.Now()
		drive(c, inst.url, in.stream[b[0]:b[1]], p.res[b[0]:b[1]], b[0], w.clients, traced, epoch)
		p.walls = append(p.walls, time.Since(t))
		m = collected()
		heaps = append(heaps, float64(m.HeapAlloc))
	}
	p.allocKB = float64(m.TotalAlloc-m0.TotalAlloc) / 1e3 / float64(len(in.stream))
	if traced {
		p.spans.wait()
	}
	if p.after, err = inst.indexStats(c); err != nil {
		return nil, err
	}
	p.counters, p.timers = counterDelta(c0, inst.reg.Counters()), timerDelta(t0, inst.reg.Timers())
	p.heapMB = (median(heaps) - baseline) / 1e6

	// Correctness gate, untimed.
	points, acked := mirror(in.ds, in.stream, p.res)
	ref, want, err := reference(points, w.algo, in)
	if err != nil {
		return nil, err
	}
	for j, qi := range in.sample {
		got, err := solveRegion(c, inst.url, in.queries[qi])
		if err != nil {
			p.fail("%s: served: %v", in.queries[qi], err)
		} else if !bytes.Equal(got, want[j]) {
			p.fail("%s: served region differs from the library's", in.queries[qi])
		}
	}
	st, err := inst.indexStats(c)
	if err != nil {
		return nil, err
	}
	if st.Version != uint64(1+acked) {
		p.fail("/v1/stats version %d, want 1 + %d acknowledged writes", st.Version, acked)
	}
	stopped = true
	if err := inst.stop(); err != nil {
		return nil, err
	}
	c.CloseIdleConnections()
	if w.durable {
		p.checkRecovery(w, inst.dc, uint64(1+acked), in, want)
	}
	if traced {
		if p.lib, err = measureLib(ref, in, want); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// checkRecovery reopens the closed WAL directory and requires the
// acknowledged version and byte-identical sampled regions.
func (p *phase) checkRecovery(w workload, dc rrq.DurableConfig, version uint64, in *inputs, want [][]byte) {
	t := time.Now()
	ix, _, err := rrq.OpenDurableIndex(dc, nil, w.options(rrq.NewRegistry())...)
	p.recover = time.Since(t)
	if err != nil {
		p.fail("reopen %s: %v", dc.Dir, err)
		return
	}
	defer ix.Close()
	if ix.Version() != version {
		p.fail("recovered version %d, want %d", ix.Version(), version)
	}
	for j, qi := range in.sample {
		res, err := ix.SolveContext(context.Background(), in.queries[qi])
		if err != nil {
			p.fail("%s: recovered index: %v", in.queries[qi], err)
			continue
		}
		got, err := res.Region.MarshalJSON()
		if err != nil || !bytes.Equal(got, want[j]) {
			p.fail("%s: recovered region differs from the library's", in.queries[qi])
		}
	}
}

// collected collects garbage twice, which also empties every sync.Pool, and
// returns the memory statistics. The timed loop calls it between blocks,
// untimed, and heap_live_mb is the median of those HeapAlloc readings, the
// bytes still reachable. On mutate-3d, a single HeapInuse reading at the
// end of a run ranged from 1.4 to 4.2 MB between runs; with one collection
// the pooled buffers moved the live heap by 0.3 MB from block to block; and
// HeapInuse, which counts whole spans, still spread 0.065 between seeds.
func collected() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// walDir returns a fresh WAL directory under tmp for a durable workload,
// "" otherwise.
func walDir(tmp string, w workload) (string, error) {
	if !w.durable {
		return "", nil
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmp, "wal-")
}

func removeDir(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir) // scratch space; a leftover is harmless
	}
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func timerDelta(before, after map[string]rrq.TimerSnapshot) map[string]rrq.TimerSnapshot {
	d := make(map[string]rrq.TimerSnapshot, len(after))
	for k, v := range after {
		b := before[k]
		d[k] = rrq.TimerSnapshot{Count: v.Count - b.Count, Total: v.Total - b.Total}
	}
	return d
}

// mirror applies the acknowledged writes, in stream order, to a copy of
// the dataset: the reference the served answers must match.
func mirror(ds *rrq.Dataset, stream []request, res []result) (pts [][]float64, acked int) {
	pts = make([][]float64, ds.Len())
	for i := range pts {
		pts[i] = ds.PointAt(i)
	}
	for i, r := range stream {
		if r.op == opSolve || !res[i].ok() {
			continue
		}
		acked++
		switch {
		case r.op == opInsert:
			pts = append(pts, r.point)
		case r.index < len(pts):
			pts = append(pts[:r.index], pts[r.index+1:]...)
		}
	}
	return pts, acked
}

// libStats sums the library work of the measured reference solves.
type libStats struct {
	solves                      int
	planesBuilt, planesInserted int
	splits, pieces              int
	allocs, bytes               uint64
	marshal                     time.Duration
}

// reference answers the verification sample with the library on a plain
// dataset — rrq.SolveContext(ds, q, WithAlgorithm(a),
// WithSkybandPrefilter(true)), through one Prepare so each k's skyband is
// computed once — and returns the Prepared and the marshalled regions.
func reference(points [][]float64, algo rrq.Algorithm, in *inputs) (*rrq.Prepared, [][]byte, error) {
	ds, err := rrq.NewDataset(points)
	if err != nil {
		return nil, nil, fmt.Errorf("reference dataset: %w", err)
	}
	ref, err := rrq.Prepare(ds, rrq.WithAlgorithm(algo), rrq.WithSkybandPrefilter(true))
	if err != nil {
		return nil, nil, err
	}
	want := make([][]byte, len(in.sample))
	for j, qi := range in.sample {
		res, err := ref.Solve(context.Background(), in.queries[qi])
		if err != nil {
			return nil, nil, fmt.Errorf("reference %s: %w", in.queries[qi], err)
		}
		if want[j], err = res.Region.MarshalJSON(); err != nil {
			return nil, nil, err
		}
	}
	return ref, want, nil
}

// measureLib solves the sample once more, serially, with each k's skyband
// already cached and the server stopped, recording the work counters,
// allocations and marshal time of each solve. Collection is off during the
// pass and two collections before it empty every sync.Pool, so the
// allocation counts repeat exactly.
func measureLib(ref *rrq.Prepared, in *inputs, want [][]byte) (libStats, error) {
	var lib libStats
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for j, qi := range in.sample {
		runtime.ReadMemStats(&m0)
		res, err := ref.Solve(context.Background(), in.queries[qi])
		runtime.ReadMemStats(&m1)
		if err != nil {
			return lib, err
		}
		t := time.Now()
		b, err := res.Region.MarshalJSON()
		lib.marshal += time.Since(t)
		if err != nil || !bytes.Equal(b, want[j]) {
			return lib, fmt.Errorf("reference %s: a repeated solve differs", in.queries[qi])
		}
		lib.solves++
		lib.planesBuilt += res.Stats.PlanesBuilt
		lib.planesInserted += res.Stats.PlanesInserted
		lib.splits += res.Stats.Splits
		lib.pieces += res.Stats.Pieces
		lib.allocs += m1.Mallocs - m0.Mallocs
		lib.bytes += m1.TotalAlloc - m0.TotalAlloc
	}
	return lib, nil
}

// solveRegion sends q to /v1/solve and returns the reply's region bytes,
// requiring an exact-tier answer.
func solveRegion(c *http.Client, url string, q rrq.Query) ([]byte, error) {
	resp, err := c.Post(url+"/v1/solve", "application/json",
		bytes.NewReader(mustJSON(solveBody{Q: q.Q, K: q.K, Epsilon: q.Epsilon})))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var reply struct {
		Tier   string          `json:"tier"`
		Region json.RawMessage `json:"region"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, err
	}
	if reply.Tier != "exact" {
		return nil, errors.New("tier " + reply.Tier + ", want exact")
	}
	return reply.Region, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"rrq"
)

// workload is one traffic mix: the dataset and rrqd flags it is served
// with, the query pool and its skew, the share of writes and the number of
// closed-loop clients.
type workload struct {
	name string
	why  string

	n, dim  int
	algo    rrq.Algorithm
	cache   int
	durable bool // -wal-dir <tmp> -fsync always with the default checkpoint cadence

	kmin, kmax int
	eps        []float64
	pool       int     // distinct queries the reads draw from, Zipf(zipfS); 0 = every read distinct
	writes     float64 // share of requests that insert or delete a point
	// clients is 1 whenever there are writes: the server then applies them
	// in stream order, as the correctness gate's mirror does, and every read
	// sees a fixed epoch and cache state, so the counts repeat exactly.
	clients int

	// rate sizes the fixed request stream: requests = rate × seconds. It is
	// a constant, not a measurement, so every run at one -seconds serves the
	// same requests. It was set from a 2-vCPU machine's throughput, so the
	// timed phase lasts about -seconds there.
	rate float64
	// requests is the timed stream length; sized fills it from rate.
	requests int
}

const (
	// datasetSeed fixes each workload's dataset and query pool, as a
	// deployment's product catalog and its popular queries are fixed;
	// -seed selects the traffic drawn from them. On heavy-4d the dataset
	// seed alone moved throughput by 2x, and on mutate-3d a pool drawn from
	// -seed spread allocation per request 0.056 over ten seeds (0.018 with
	// the pool fixed).
	datasetSeed = 1
	// Reads from a pool follow Zipf(zipfS) over the pool's ranks offset by
	// zipfV: P(rank r) ∝ (zipfV + r)^−zipfS. With the offset, the most
	// popular query takes 2% of the reads instead of 16%, so a run does not
	// hang on the cost of a few queries; 4096 queries still overflow a
	// 1024-entry cache.
	zipfS      = 1.1
	zipfV      = 10
	sampleSize = 64 // distinct queries re-requested by the correctness gate
	// The timed stream is cut into maxBlocks consecutive blocks (fewer only
	// for streams shorter than that); the heap is read between blocks.
	maxBlocks = 20
)

// workloads is the benchmark's set. Each entry stresses a different layer;
// bench/README.md gives the reasons in full.
var workloads = []workload{
	{
		name: "mixed-3d",
		why:  "balanced traffic: a 4096-query Zipf working set over a 1024-entry cache, so every layer does some work",
		n:    20000, dim: 3, algo: rrq.EPTAlgo, cache: 1024,
		kmin: 1, kmax: 10, eps: []float64{0.05, 0.1, 0.2},
		pool: 4096, clients: 2, rate: 2500,
	},
	{
		name: "heavy-4d",
		why:  "solver- and encode-bound: distinct 4-d queries never hit the cache and answers are tens of KB",
		n:    5000, dim: 4, algo: rrq.EPTAlgo, cache: 128,
		kmin: 1, kmax: 3, eps: []float64{0.1, 0.2},
		clients: 2, rate: 600,
	},
	{
		name: "hot-2d",
		why:  "serving overhead only: 256 hot 2-d queries fit the cache, so solver and encoder do almost nothing",
		n:    20000, dim: 2, algo: rrq.SweepingAlgo, cache: 1024,
		kmin: 1, kmax: 20, eps: []float64{0.05, 0.1, 0.2},
		pool: 256, clients: 2, rate: 40000,
	},
	{
		name: "mutate-3d",
		why:  "writes beside reads: 10% inserts and deletes from one client through a fsync-always WAL prune the cache every epoch",
		n:    5000, dim: 3, algo: rrq.EPTAlgo, cache: 1024, durable: true,
		kmin: 1, kmax: 10, eps: []float64{0.05, 0.1, 0.2},
		pool: 4096, writes: 0.10, clients: 1, rate: 1000,
	},
}

// sized returns the workload with its stream length set for a run of the
// given length.
func (w workload) sized(seconds int) workload {
	w.requests = max(1, int(w.rate*float64(seconds)))
	return w
}

// rrqdFlags renders the rrqd command-line flags the in-process server
// mirrors.
func (w workload) rrqdFlags() string {
	algo := "ept"
	if w.algo == rrq.SweepingAlgo {
		algo = "sweeping"
	}
	s := fmt.Sprintf("-synthetic indep:%d:%d:%d -algo %s -cache %d", w.n, w.dim, datasetSeed, algo, w.cache)
	if w.durable {
		s += " -wal-dir <tmp> -fsync always"
	}
	return s
}

// dataset is the served dataset, generated exactly as rrqd's -synthetic
// flag generates it.
func (w workload) dataset() *rrq.Dataset {
	return rrq.SyntheticDataset(rrq.Independent, w.n, w.dim, datasetSeed)
}

type opKind uint8

const (
	opSolve opKind = iota
	opInsert
	opDelete
)

func (o opKind) path() string {
	switch o {
	case opInsert:
		return "/v1/insert"
	case opDelete:
		return "/v1/delete"
	default:
		return "/v1/solve"
	}
}

// request is one HTTP request of a stream, with its body encoded up front
// so that the timed phase spends no client time on encoding.
type request struct {
	op    opKind
	body  []byte
	query int       // opSolve: index into inputs.queries
	point []float64 // opInsert
	index int       // opDelete
}

// inputs is everything a run sends, generated from the workload and the
// seed alone.
type inputs struct {
	ds      *rrq.Dataset // the served dataset at version 1
	queries []rrq.Query  // every distinct query a request may carry; the pool first
	warm    []request    // untimed warm-up, disjoint from the timed queries
	stream  []request    // the timed requests, in order
	blocks  [][2]int     // consecutive [start, end) ranges of stream
	sample  []int        // verification sample: indexes into queries
}

// subSeed derives an independent stream seed from the run seed (SplitMix64).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// generate builds the run's inputs. Query points are perturbed points of
// the dataset's kmax-skyband: perturbed points of the whole dataset mostly
// have empty regions, which would measure an early exit.
func generate(w workload, seed int64) (*inputs, error) {
	ds := w.dataset()
	sky := ds.KSkyband(w.kmax)
	if sky.Len() == 0 {
		return nil, fmt.Errorf("%s: empty %d-skyband", w.name, w.kmax)
	}
	in := &inputs{ds: ds}
	seen := make(map[string]bool)
	var bodies [][]byte
	draw := func(rng *rand.Rand) int {
		for {
			q := rrq.Query{
				Q:       sky.RandomQuery(rng.Int63()),
				K:       w.kmin + rng.Intn(w.kmax-w.kmin+1),
				Epsilon: w.eps[rng.Intn(len(w.eps))],
			}
			if key := q.Key(); !seen[key] {
				seen[key] = true
				in.queries = append(in.queries, q)
				bodies = append(bodies, mustJSON(solveBody{Q: q.Q, K: q.K, Epsilon: q.Epsilon}))
				return len(in.queries) - 1
			}
		}
	}
	read := func(i int) request { return request{op: opSolve, body: bodies[i], query: i} }

	poolRng := rand.New(rand.NewSource(subSeed(datasetSeed, 1)))
	for range w.pool {
		draw(poolRng) // the pool is queries[0:w.pool], in Zipf rank order
	}
	warmRng := rand.New(rand.NewSource(subSeed(seed, 2)))
	for range max(1, w.requests/50) {
		in.warm = append(in.warm, read(draw(warmRng)))
	}

	rng := rand.New(rand.NewSource(subSeed(seed, 3)))
	var zipf *rand.Zipf
	if w.pool > 0 {
		zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(w.pool-1))
	}
	live := w.n
	in.stream = make([]request, 0, w.requests)
	for range w.requests {
		switch {
		case w.writes > 0 && rng.Float64() < w.writes:
			if live > 1 && rng.Intn(2) == 0 {
				i := rng.Intn(live)
				in.stream = append(in.stream, request{op: opDelete, index: i, body: mustJSON(deleteBody{Index: i})})
				live--
				continue
			}
			p := make([]float64, w.dim)
			for j := range p {
				p[j] = 1 - rng.Float64() // (0,1], the normalized domain
			}
			in.stream = append(in.stream, request{op: opInsert, point: p, body: mustJSON(insertBody{Point: p})})
			live++
		case zipf != nil:
			in.stream = append(in.stream, read(int(zipf.Uint64())))
		default:
			in.stream = append(in.stream, read(draw(rng)))
		}
	}

	// Cut the stream into blocks. With writes, each block ends just after
	// a write, which prunes the result cache: the heap read between blocks
	// then does not depend on how many regions the cache gathered since the
	// last write, which moved mutate-3d's heap by ±20% between seeds.
	nb, start := min(maxBlocks, len(in.stream)), 0
	for b := 1; b <= nb; b++ {
		end := max(start, b*len(in.stream)/nb)
		for w.writes > 0 && end < len(in.stream) && (end == start || in.stream[end-1].op == opSolve) {
			end++
		}
		if end > start {
			in.blocks = append(in.blocks, [2]int{start, end})
			start = end
		}
	}

	// The sample: distinct timed queries in a seeded order.
	var distinct []int
	picked := make(map[int]bool)
	for _, r := range in.stream {
		if r.op == opSolve && !picked[r.query] {
			picked[r.query] = true
			distinct = append(distinct, r.query)
		}
	}
	srng := rand.New(rand.NewSource(subSeed(seed, 4)))
	srng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	in.sample = distinct[:min(sampleSize, len(distinct))]
	return in, nil
}

// Request bodies, as internal/server decodes them.
type solveBody struct {
	Q       []float64 `json:"q"`
	K       int       `json:"k"`
	Epsilon float64   `json:"epsilon"`
}

type insertBody struct {
	Point []float64 `json:"point"`
}

type deleteBody struct {
	Index int `json:"index"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the body types hold only finite numbers
	}
	return b
}

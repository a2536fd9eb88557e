// Command rrqbench regenerates the paper's evaluation figures (Figures
// 7–17) as printed tables. By default every experiment runs at quick scale;
// -full switches to the paper's parameters.
//
// Usage:
//
//	rrqbench                        # run everything, quick scale
//	rrqbench -exp fig10a            # one experiment
//	rrqbench -exp fig9a,fig9b -full
//	rrqbench -list
//	rrqbench -benchjson BENCH_solve.json   # machine-readable solve benchmark
//	rrqbench -benchjson BENCH_solve.json -cpus 1,2,4,8   # + multi-core matrix
//	rrqbench -benchjson BENCH_solve.json -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrq"
	"rrq/internal/expt"
)

// summaryReference picks the proposed algorithm to normalize speedups to:
// Sweeping when present, otherwise E-PT.
func summaryReference(t *expt.Table) string {
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if c.Algo == "Sweeping" {
				return "Sweeping"
			}
		}
	}
	return "E-PT"
}

// writeCSV writes one table as <dir>/<table-id>.csv, creating dir.
func writeCSV(dir string, t *expt.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		full       = flag.Bool("full", false, "use the paper's full-scale parameters")
		seed       = flag.Int64("seed", 0, "override the experiment seed (0 = default)")
		repeats    = flag.Int("repeats", 0, "query points averaged per cell (0 = default)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		csvDir     = flag.String("csv", "", "also write each table as <dir>/<table-id>.csv")
		budget     = flag.Duration("budget", 0, "per-cell wall-clock budget (0 = default)")
		benchJSON  = flag.String("benchjson", "", "run the solve benchmark suite and write machine-readable JSON to this path")
		cpus       = flag.String("cpus", "", "comma-separated GOMAXPROCS values (e.g. 1,2,4,8): with -benchjson, also run the shared-vs-independent batch matrix at each value")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile at exit to this path (go tool pprof)")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrqbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rrqbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rrqbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile reflects live + cumulative allocs
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "rrqbench:", err)
			}
		}()
	}

	if *list {
		for _, id := range expt.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *benchJSON != "" {
		cpuVals, err := parseCPUList(*cpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rrqbench:", err)
			os.Exit(2)
		}
		if err := runBenchJSON(*benchJSON, *full, *seed, cpuVals); err != nil {
			fmt.Fprintln(os.Stderr, "rrqbench:", err)
			os.Exit(1)
		}
		return
	}

	sc := expt.Scale{Full: *full, Seed: *seed, Repeats: *repeats, CellBudget: *budget}
	ids := expt.IDs()
	if *exps != "all" {
		ids = strings.Split(*exps, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := expt.Registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "rrqbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tables := runner(sc)
		for _, t := range tables {
			t.Print(os.Stdout)
			if err := t.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "rrqbench: experiment %s: %v\n", id, err)
				os.Exit(1)
			}
			expt.PrintSummary(os.Stdout, t, summaryReference(t))
			fmt.Println()
			if *csvDir != "" {
				if err := writeCSV(*csvDir, t); err != nil {
					fmt.Fprintln(os.Stderr, "rrqbench:", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// benchScenario is one solve-benchmark configuration: a synthetic dataset
// and a batch of queries answered by one algorithm.
type benchScenario struct {
	Name    string
	Dist    rrq.DistType
	N, D    int
	Algo    rrq.Algorithm
	K       int
	Eps     float64
	Queries int
	Workers int // batch (inter-query) workers; 0 = GOMAXPROCS
	Intra   int // intra-query workers; 0/1 = serial solves
}

// benchPhase is the JSON form of one phase timer.
type benchPhase struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	MinNs   int64 `json:"min_ns"`
	MaxNs   int64 `json:"max_ns"`
	MeanNs  int64 `json:"mean_ns"`
}

// benchResult is the JSON record of one scenario run.
type benchResult struct {
	Name        string                `json:"name"`
	Algo        string                `json:"algo"`
	N           int                   `json:"n"`
	D           int                   `json:"d"`
	K           int                   `json:"k"`
	Eps         float64               `json:"eps"`
	Queries     int                   `json:"queries"`
	Workers     int                   `json:"workers"`
	Intra       int                   `json:"intra_workers"`
	GOMAXPROCS  int                   `json:"gomaxprocs"`
	Note        string                `json:"note,omitempty"`
	Solved      int                   `json:"solved"`
	Failed      int                   `json:"failed"`
	ElapsedNs   int64                 `json:"elapsed_ns"`
	QueryTimeNs int64                 `json:"query_time_ns"`
	NsPerQuery  int64                 `json:"ns_per_query"`
	AllocsPerQ  int64                 `json:"allocs_per_query"`
	BytesPerQ   int64                 `json:"bytes_per_query"`
	Stats       rrq.Stats             `json:"stats"`
	Phases      map[string]benchPhase `json:"phases"`
}

// cpuMatrixRow is one cell of the multi-core batch matrix: the same
// mixed-(k, ε) batch workload run at a pinned GOMAXPROCS, with cross-query
// sharing on (shared=true) or off (shared=false, independent per-query
// solves through the identical dispatch path). SpeedupVs1 normalizes
// ns/query to the cpus=1 row of the same scenario and sharing flag; it is
// machine-dependent and informational — regression gates compare the
// shared/independent ratio instead. PlanesPerQ is the classification work
// per query (points classified into planes, the core.planes.classified
// counter), read from the untimed warm-up round: it is deterministic for a
// given workload and code path, and it is the work sharing saves.
type cpuMatrixRow struct {
	Name       string  `json:"name"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Shared     bool    `json:"shared"`
	N          int     `json:"n"`
	D          int     `json:"d"`
	Queries    int     `json:"queries"`
	Rounds     int     `json:"rounds"`
	Deduped    int     `json:"deduped"`
	NsPerQuery int64   `json:"ns_per_query"`
	AllocsPerQ int64   `json:"allocs_per_query"`
	BytesPerQ  int64   `json:"bytes_per_query"`
	PlanesPerQ float64 `json:"planes_classified_per_query"`
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	Note       string  `json:"note,omitempty"`
}

// benchReport is the top-level BENCH_solve.json document.
type benchReport struct {
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"num_cpu"`
	Full       bool                 `json:"full"`
	Seed       int64                `json:"seed"`
	Results    []benchResult        `json:"results"`
	CPUMatrix  []cpuMatrixRow       `json:"cpu_matrix,omitempty"`
	Index      []indexBenchResult   `json:"index_results"`
	Anytime    []anytimeBenchResult `json:"anytime_results"`
}

// parseCPUList parses the -cpus flag ("1,2,4,8") into sorted-unique-free
// (order-preserving) positive GOMAXPROCS values. Empty input means no matrix.
func parseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-cpus: invalid value %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// indexScenario is one index-serving benchmark configuration: the dataset an
// index is built over and the query stream replayed twice — warm through the
// snapshot, cold through per-query preprocessing.
type indexScenario struct {
	Name    string
	Dist    rrq.DistType
	N, D    int
	Algo    rrq.Algorithm
	K       int
	Eps     float64
	Queries int
	Rounds  int // times each query repeats
}

// indexBenchResult is the JSON record of one index scenario: the one-time
// build cost, then warm (snapshot-served) vs cold (per-query validation +
// skyband + plane classification) cost over the identical query stream, plus
// the incremental-maintenance cost of an interleaved Insert/Delete stream.
// PlaneHitsPerQ and PlaneMissesPerQ are the index's plane traffic over the
// warm stream: a served solve keeps no plane group, so every query reads 0
// hits and 1 miss, and benchdiff requires them to equal the baseline's.
type indexBenchResult struct {
	Name            string  `json:"name"`
	N               int     `json:"n"`
	D               int     `json:"d"`
	K               int     `json:"k"`
	Eps             float64 `json:"eps"`
	Queries         int     `json:"queries"`
	Rounds          int     `json:"rounds"`
	BuildNs         int64   `json:"build_ns"`
	WarmNsPerQuery  int64   `json:"warm_ns_per_query"`
	ColdNsPerQuery  int64   `json:"cold_ns_per_query"`
	WarmQPS         float64 `json:"warm_queries_per_sec"`
	ColdQPS         float64 `json:"cold_queries_per_sec"`
	Speedup         float64 `json:"speedup"`
	PlaneHitsPerQ   float64 `json:"plane_hits_per_query"`
	PlaneMissesPerQ float64 `json:"plane_misses_per_query"`
	MaintainOps     int     `json:"maintain_ops"`
	MaintainNsPerOp int64   `json:"maintain_ns_per_op"`
}

// anytimeBenchResult is one point of the volume-error-vs-latency curve: the
// anytime tier cut at a fixed sample budget, compared against the exact
// region for the same queries. Volume error is measured with a fixed-seed
// Monte-Carlo estimate shared between the exact and anytime regions, so the
// per-point membership comparison is paired: the anytime region is a subset
// of the exact one, which makes volume_error_* deterministic for a given
// seed, non-negative, and non-increasing along the budget ladder — the
// machine-independent signals benchdiff gates on. ns/query is informational.
type anytimeBenchResult struct {
	Name        string  `json:"name"`
	Curve       string  `json:"curve"` // groups the rows of one budget ladder
	N           int     `json:"n"`
	D           int     `json:"d"`
	K           int     `json:"k"`
	Eps         float64 `json:"eps"`
	Queries     int     `json:"queries"`
	Samples     int     `json:"samples"`      // full sample stream length
	Budget      int     `json:"budget"`       // sample budget the construction was cut at
	SamplesUsed int     `json:"samples_used"` // max over queries
	Cut         bool    `json:"cut"`
	NsPerQuery  int64   `json:"ns_per_query"`
	PiecesAvg   float64 `json:"pieces_avg"`
	RhoBound    float64 `json:"rho_bound"`   // Lemma 5.10 ρ, max over queries
	ErrorBound  float64 `json:"error_bound"` // the bound benchdiff holds volume_error_max to
	VolErrMean  float64 `json:"volume_error_mean"`
	VolErrMax   float64 `json:"volume_error_max"`
}

// runAnytimeScenarios traces the anytime tier's accuracy/latency trade-off:
// one 4-d workload solved exactly (the reference), then re-solved with the
// progressive A-PC construction cut at an ascending ladder of sample budgets.
// All regions — exact and anytime — are measured with the same fixed-seed
// Monte-Carlo sample set, so each anytime region (a subset of the exact one)
// loses exactly the sample points it fails to cover and the error columns are
// reproducible across machines.
func runAnytimeScenarios(full bool, seed int64) ([]anytimeBenchResult, error) {
	mul := 1
	if full {
		mul = 4
	}
	const (
		curve    = "anytime-5d"
		d        = 5
		k        = 3
		eps      = 0.05
		samples  = 32 // full anytime sample stream; budgets below cut it
		measSeed = 0xA11B2
		measN    = 4000
		minVol   = 0.02 // queries below this exact volume show no curve
	)
	n := 400 * mul
	want := 4 * mul
	ds := rrq.SyntheticDataset(rrq.Anticorrelated, n, d, seed)
	ctx := context.Background()
	// Random preferences mostly hit near-empty regions; keep only candidates
	// whose exact region has measurable volume, so the budget ladder traces a
	// real error curve instead of 0 − 0 at every cut. The filter is a pure
	// function of the seed, so the kept query set is reproducible.
	var queries []rrq.Query
	var exact []float64
	for cand := 0; cand < 16*want && len(queries) < want; cand++ {
		q := rrq.Query{Q: ds.RandomQuery(seed + 100 + int64(cand)), K: k, Epsilon: eps}
		res, err := rrq.SolveContext(ctx, ds, q, rrq.WithAlgorithm(rrq.EPTAlgo), rrq.WithSeed(seed))
		if err != nil {
			return nil, fmt.Errorf("%s exact reference candidate %d: %w", curve, cand, err)
		}
		if v := res.Region.MeasureWithSeed(measSeed, measN); v >= minVol {
			queries = append(queries, q)
			exact = append(exact, v)
		}
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("%s: no candidate query reached exact volume %v", curve, minVol)
	}
	qn := len(queries)
	var out []anytimeBenchResult
	for _, budget := range []int{2, 4, 8, 16, samples} {
		row := anytimeBenchResult{
			Name: fmt.Sprintf("%s-s%02d", curve, budget), Curve: curve,
			N: n, D: d, K: k, Eps: eps, Queries: qn,
			Samples: samples, Budget: budget,
		}
		var elapsed time.Duration
		var pieces int
		for i, q := range queries {
			res, err := rrq.SolveContext(ctx, ds, q,
				rrq.WithAnytimeSamples(budget), rrq.WithSamples(samples), rrq.WithSeed(seed))
			if err != nil {
				return nil, fmt.Errorf("%s query %d: %w", row.Name, i, err)
			}
			if res.Tier != rrq.TierAnytime || res.Accuracy == nil {
				return nil, fmt.Errorf("%s query %d: tier %v accuracy %v, want anytime with accuracy", row.Name, i, res.Tier, res.Accuracy)
			}
			e := exact[i] - res.Region.MeasureWithSeed(measSeed, measN)
			row.VolErrMean += e
			if e > row.VolErrMax {
				row.VolErrMax = e
			}
			acc := res.Accuracy
			if acc.SamplesUsed > row.SamplesUsed {
				row.SamplesUsed = acc.SamplesUsed
			}
			if acc.RhoBound > row.RhoBound {
				row.RhoBound = acc.RhoBound
			}
			row.Cut = acc.Cut
			elapsed += res.Elapsed
			pieces += res.Region.NumPartitions()
		}
		row.VolErrMean /= float64(qn)
		row.ErrorBound = row.RhoBound
		row.NsPerQuery = elapsed.Nanoseconds() / int64(qn)
		row.PiecesAvg = float64(pieces) / float64(qn)
		out = append(out, row)
	}
	return out, nil
}

// indexSuite returns the index scenario list, sized like benchSuite.
func indexSuite(full bool) []indexScenario {
	mul := 1
	if full {
		mul = 4
	}
	return []indexScenario{
		{Name: "index-2d", Dist: rrq.Independent, N: 5000 * mul, D: 2, Algo: rrq.SweepingAlgo, K: 10, Eps: 0.1, Queries: 16 * mul, Rounds: 3},
		{Name: "index-3d", Dist: rrq.Independent, N: 2000 * mul, D: 3, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 8 * mul, Rounds: 3},
		{Name: "index-4d", Dist: rrq.Anticorrelated, N: 1000 * mul, D: 4, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 4 * mul, Rounds: 3},
	}
}

// benchSuite returns the fixed scenario list. Quick scale keeps the whole
// suite in CI-smoke territory (a few seconds); -full multiplies dataset and
// batch sizes toward the paper's scale.
func benchSuite(full bool) []benchScenario {
	mul := 1
	if full {
		mul = 4
	}
	return []benchScenario{
		{Name: "sweeping-2d", Dist: rrq.Independent, N: 5000 * mul, D: 2, Algo: rrq.SweepingAlgo, K: 10, Eps: 0.1, Queries: 32 * mul},
		{Name: "ept-3d", Dist: rrq.Independent, N: 2000 * mul, D: 3, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 16 * mul},
		{Name: "ept-4d", Dist: rrq.Anticorrelated, N: 1000 * mul, D: 4, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 8 * mul},
		{Name: "ept-4d-serial", Dist: rrq.Anticorrelated, N: 1000 * mul, D: 4, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 8 * mul, Workers: 1},
		{Name: "ept-5d-serial", Dist: rrq.Anticorrelated, N: 400 * mul, D: 5, Algo: rrq.EPTAlgo, K: 5, Eps: 0.1, Queries: 4 * mul, Workers: 1},
		{Name: "apc-4d", Dist: rrq.Independent, N: 2000 * mul, D: 4, Algo: rrq.APCAlgo, K: 5, Eps: 0.1, Queries: 8 * mul},
		{Name: "apc-4d-intra8", Dist: rrq.Independent, N: 2000 * mul, D: 4, Algo: rrq.APCAlgo, K: 5, Eps: 0.1, Queries: 8 * mul, Workers: 1, Intra: 8},
		{Name: "lpcta-3d", Dist: rrq.Independent, N: 150 * mul, D: 3, Algo: rrq.LPCTAAlgo, K: 3, Eps: 0.1, Queries: 4 * mul},
	}
}

// runBenchJSON runs the solve benchmark suite through the public batch API
// with metrics enabled and writes the aggregate as machine-readable JSON —
// the artifact CI uploads for cross-commit performance tracking.
func runBenchJSON(path string, full bool, seed int64, cpus []int) error {
	if seed == 0 {
		seed = 42
	}
	rep := benchReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Full:       full,
		Seed:       seed,
	}
	for _, sc := range benchSuite(full) {
		ds := rrq.SyntheticDataset(sc.Dist, sc.N, sc.D, seed)
		queries := make([]rrq.Query, sc.Queries)
		for i := range queries {
			queries[i] = rrq.Query{Q: ds.RandomQuery(seed + int64(i)), K: sc.K, Epsilon: sc.Eps}
		}
		reg := rrq.NewRegistry()
		// Mallocs/TotalAlloc deltas around the batch give allocs and bytes
		// per query; a GC fence before the first read keeps concurrent
		// sweep work of the previous scenario out of the window.
		runtime.GC()
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		report, err := rrq.SolveBatch(context.Background(), ds, queries,
			rrq.WithAlgorithm(sc.Algo), rrq.WithWorkers(sc.Workers),
			rrq.WithIntraQueryWorkers(sc.Intra),
			rrq.WithSeed(seed), rrq.WithMetrics(reg))
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		runtime.ReadMemStats(&msAfter)
		gmp := runtime.GOMAXPROCS(0)
		res := benchResult{
			Name:        sc.Name,
			Algo:        sc.Algo.String(),
			N:           sc.N,
			D:           sc.D,
			K:           sc.K,
			Eps:         sc.Eps,
			Queries:     sc.Queries,
			Workers:     sc.Workers,
			Intra:       sc.Intra,
			GOMAXPROCS:  gmp,
			Note:        parallelismNote(sc.Workers, sc.Intra, gmp),
			Solved:      report.Solved,
			Failed:      report.Failed,
			ElapsedNs:   report.Elapsed.Nanoseconds(),
			QueryTimeNs: report.QueryTime.Nanoseconds(),
			Stats:       report.Agg,
			Phases:      make(map[string]benchPhase, len(report.Phases)),
		}
		if sc.Queries > 0 {
			res.NsPerQuery = report.QueryTime.Nanoseconds() / int64(sc.Queries)
			res.AllocsPerQ = int64(msAfter.Mallocs-msBefore.Mallocs) / int64(sc.Queries)
			res.BytesPerQ = int64(msAfter.TotalAlloc-msBefore.TotalAlloc) / int64(sc.Queries)
		}
		for name, s := range report.Phases {
			res.Phases[name] = benchPhase{
				Count:   s.Count,
				TotalNs: s.Total.Nanoseconds(),
				MinNs:   s.Min.Nanoseconds(),
				MaxNs:   s.Max.Nanoseconds(),
				MeanNs:  s.Mean().Nanoseconds(),
			}
		}
		rep.Results = append(rep.Results, res)
		fmt.Printf("%-16s %-10s n=%-6d d=%d  %d queries in %v (%v/query, %d allocs/query)\n",
			sc.Name, res.Algo, sc.N, sc.D, sc.Queries,
			report.Elapsed.Round(time.Millisecond), time.Duration(res.NsPerQuery).Round(time.Microsecond),
			res.AllocsPerQ)
	}
	if len(cpus) > 0 {
		rows, err := runCPUMatrix(full, seed, cpus)
		if err != nil {
			return err
		}
		rep.CPUMatrix = rows
		for _, r := range rows {
			mode := "independent"
			if r.Shared {
				mode = "shared"
			}
			extra := ""
			if r.Note != "" {
				extra = "  [" + r.Note + "]"
			}
			fmt.Printf("%-16s cpus=%d %-11s %v/query, %d allocs/query, %.1f planes classified/query, %.2fx vs 1 cpu%s\n",
				r.Name, r.CPUs, mode,
				time.Duration(r.NsPerQuery).Round(time.Microsecond),
				r.AllocsPerQ, r.PlanesPerQ, r.SpeedupVs1, extra)
		}
	}
	for _, sc := range indexSuite(full) {
		res, err := runIndexScenario(sc, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		rep.Index = append(rep.Index, res)
		fmt.Printf("%-16s %-10s n=%-6d d=%d  build %v  warm %v/query vs cold %v/query (%.1fx)  maintain %v/op\n",
			sc.Name, "index", sc.N, sc.D,
			time.Duration(res.BuildNs).Round(time.Microsecond),
			time.Duration(res.WarmNsPerQuery).Round(time.Microsecond),
			time.Duration(res.ColdNsPerQuery).Round(time.Microsecond),
			res.Speedup,
			time.Duration(res.MaintainNsPerOp).Round(time.Microsecond))
	}
	anytime, err := runAnytimeScenarios(full, seed)
	if err != nil {
		return err
	}
	rep.Anytime = anytime
	for _, a := range anytime {
		fmt.Printf("%-16s budget=%-3d used=%-3d cut=%-5v %v/query  vol-err mean %.4f max %.4f (ρ bound %.3f)\n",
			a.Name, a.Budget, a.SamplesUsed, a.Cut,
			time.Duration(a.NsPerQuery).Round(time.Microsecond),
			a.VolErrMean, a.VolErrMax, a.RhoBound)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runIndexScenario times one index scenario: the one-time build, the query
// stream served warm from the snapshot (its maintained k-bands; each solve
// still classifies its own planes) and cold through full per-query
// preprocessing, and an interleaved Insert/Delete maintenance stream.
func runIndexScenario(sc indexScenario, seed int64) (indexBenchResult, error) {
	ctx := context.Background()
	ds := rrq.SyntheticDataset(sc.Dist, sc.N, sc.D, seed)
	queries := make([]rrq.Query, sc.Queries)
	for i := range queries {
		queries[i] = rrq.Query{Q: ds.RandomQuery(seed + int64(i)), K: sc.K, Epsilon: sc.Eps}
	}
	res := indexBenchResult{Name: sc.Name, N: sc.N, D: sc.D, K: sc.K, Eps: sc.Eps, Queries: sc.Queries, Rounds: sc.Rounds}

	start := time.Now()
	ix, err := rrq.BuildIndex(ds, rrq.WithAlgorithm(sc.Algo))
	if err != nil {
		return res, err
	}
	res.BuildNs = time.Since(start).Nanoseconds()

	total := sc.Queries * sc.Rounds
	start = time.Now()
	for r := 0; r < sc.Rounds; r++ {
		for _, q := range queries {
			if _, err := ix.SolveContext(ctx, q); err != nil {
				return res, err
			}
		}
	}
	warm := time.Since(start)
	st := ix.Stats()
	res.PlaneHitsPerQ = float64(st.PlaneHits) / float64(total)
	res.PlaneMissesPerQ = float64(st.PlaneMisses) / float64(total)

	start = time.Now()
	for r := 0; r < sc.Rounds; r++ {
		for _, q := range queries {
			if _, err := rrq.SolveContext(ctx, ds, q, rrq.WithAlgorithm(sc.Algo), rrq.WithSkybandPrefilter(true)); err != nil {
				return res, err
			}
		}
	}
	cold := time.Since(start)

	res.WarmNsPerQuery = warm.Nanoseconds() / int64(total)
	res.ColdNsPerQuery = cold.Nanoseconds() / int64(total)
	if warm > 0 {
		res.WarmQPS = float64(total) / warm.Seconds()
	}
	if cold > 0 {
		res.ColdQPS = float64(total) / cold.Seconds()
	}
	if warm > 0 && cold > 0 {
		res.Speedup = float64(cold.Nanoseconds()) / float64(warm.Nanoseconds())
	}

	// Maintenance: alternate fresh inserts and deletes, each publishing a new
	// epoch with delta-maintained dominator counts.
	const ops = 100
	start = time.Now()
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			if _, err := ix.Insert(ds.RandomQuery(seed + int64(1000+i))); err != nil {
				return res, err
			}
		} else {
			if _, err := ix.Delete(i % ix.Len()); err != nil {
				return res, err
			}
		}
	}
	res.MaintainOps = ops
	res.MaintainNsPerOp = time.Since(start).Nanoseconds() / ops
	return res, nil
}

// parallelismNote flags configurations whose requested parallelism exceeds
// what the runtime will actually schedule, so a row can never silently claim
// multi-core numbers it did not get. workers ≤ 0 means GOMAXPROCS (never
// oversubscribed by itself); intra ≤ 1 means serial solves.
func parallelismNote(workers, intra, gomaxprocs int) string {
	if workers <= 0 {
		workers = gomaxprocs
	}
	if intra < 1 {
		intra = 1
	}
	if workers*intra > gomaxprocs {
		return fmt.Sprintf("requested parallelism %d (workers %d x intra %d) exceeds GOMAXPROCS %d; solves time-share cores", workers*intra, workers, intra, gomaxprocs)
	}
	return ""
}

// matrixScenario is one dataset shape the multi-core matrix runs over.
type matrixScenario struct {
	Name string
	Dist rrq.DistType
	N, D int
	KMax int
	Eps  []float64
}

// matrixQueries builds the batch workload the sharing layer targets: a few
// query points, each asked over a range of ranks and two ε values (nested
// and sibling plane groups), then a 50% tail of exact repeats — the shape
// the serving simulator also uses (sim.Workload Repeat: 0.5) — so the dedup
// tier participates the way it does in a live query stream.
func matrixQueries(ds *rrq.Dataset, sc matrixScenario, seed int64) []rrq.Query {
	var queries []rrq.Query
	for i := 0; i < 4; i++ {
		qp := ds.RandomQuery(seed + int64(100+i))
		for _, eps := range sc.Eps {
			for k := 1; k <= sc.KMax; k++ {
				queries = append(queries, rrq.Query{Q: qp, K: k, Epsilon: eps})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	distinct := len(queries)
	for i := 0; i < distinct/2; i++ {
		queries = append(queries, queries[rng.Intn(distinct)])
	}
	return queries
}

// runCPUMatrix runs the shared-vs-independent comparison at each requested
// GOMAXPROCS. Both modes measure the one-shot serving pattern — dataset
// preprocessing plus all solves — so the batch engine's amortization
// (one capped skyband pass, per-(point, ε) plane groups, dedup) shows
// against its replacement: a fresh Prepare with an independent Solve
// call per query, fanned over the same number of workers. GOMAXPROCS is
// restored on return.
func runCPUMatrix(full bool, seed int64, cpus []int) ([]cpuMatrixRow, error) {
	mul := 1
	if full {
		mul = 4
	}
	scenarios := []matrixScenario{
		{Name: "batch-ept-3d", Dist: rrq.Independent, N: 2000 * mul, D: 3, KMax: 8, Eps: []float64{0.05, 0.12}},
		{Name: "batch-ept-4d", Dist: rrq.Independent, N: 1500 * mul, D: 4, KMax: 4, Eps: []float64{0.1, 0.2}},
	}
	rounds := 4 * mul
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var rows []cpuMatrixRow
	// ns/query of the cpus=1 row, per scenario and sharing flag, for SpeedupVs1.
	type baseKey struct {
		name   string
		shared bool
	}
	base := make(map[baseKey]int64)
	for _, sc := range scenarios {
		ds := rrq.SyntheticDataset(sc.Dist, sc.N, sc.D, seed)
		queries := matrixQueries(ds, sc, seed)
		for _, c := range cpus {
			runtime.GOMAXPROCS(c)
			for _, shared := range []bool{true, false} {
				row, err := runMatrixCell(ds, queries, sc, c, shared, rounds, seed)
				if err != nil {
					return nil, fmt.Errorf("%s cpus=%d shared=%v: %w", sc.Name, c, shared, err)
				}
				k := baseKey{sc.Name, shared}
				if c == 1 {
					base[k] = row.NsPerQuery
				}
				if b, ok := base[k]; ok && b > 0 && row.NsPerQuery > 0 {
					row.SpeedupVs1 = float64(b) / float64(row.NsPerQuery)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// runMatrixCell times one matrix cell: `rounds` one-shot servings of the
// batch at the current GOMAXPROCS, each paying the dataset preprocessing and
// every solve. The shared mode dispatches through SolveBatch with sharing
// and dedup on; the independent mode answers each query with its own Solve
// call over a fresh Prepare, fanned over the same worker count. One untimed
// warm-up round lets pools and caches settle and counts the planes
// classified, with metrics on; allocation deltas are read around the timed
// window, which runs without metrics.
func runMatrixCell(ds *rrq.Dataset, queries []rrq.Query, sc matrixScenario, cpus int, shared bool, rounds int, seed int64) (cpuMatrixRow, error) {
	gmp := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	opts := []rrq.Option{
		rrq.WithAlgorithm(rrq.EPTAlgo), rrq.WithSkybandPrefilter(true),
		rrq.WithWorkers(cpus), rrq.WithSeed(seed),
	}
	var deduped int
	runOnce := func(opts ...rrq.Option) error {
		if shared {
			rep, err := rrq.SolveBatch(ctx, ds, queries, opts...)
			if err != nil {
				return err
			}
			for _, r := range rep.Results {
				if r.Err != nil {
					return r.Err
				}
			}
			deduped = rep.Deduped
			return nil
		}
		p, err := rrq.Prepare(ds, opts...)
		if err != nil {
			return err
		}
		errs := make([]error, len(queries))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cpus; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(queries) {
						return
					}
					_, errs[i] = p.Solve(ctx, queries[i])
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	reg := rrq.NewRegistry()
	if err := runOnce(append(opts, rrq.WithMetrics(reg))...); err != nil {
		return cpuMatrixRow{}, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if err := runOnce(opts...); err != nil {
			return cpuMatrixRow{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	total := int64(rounds) * int64(len(queries))
	row := cpuMatrixRow{
		Name: sc.Name, CPUs: cpus, GOMAXPROCS: gmp, Workers: cpus, Shared: shared,
		N: sc.N, D: sc.D, Queries: len(queries), Rounds: rounds,
		Deduped:    deduped,
		NsPerQuery: elapsed.Nanoseconds() / total,
		AllocsPerQ: int64(after.Mallocs-before.Mallocs) / total,
		BytesPerQ:  int64(after.TotalAlloc-before.TotalAlloc) / total,
		PlanesPerQ: float64(reg.Counter("core.planes.classified").Value()) / float64(len(queries)),
	}
	if cpus > runtime.NumCPU() {
		row.Note = fmt.Sprintf("gomaxprocs %d exceeds the machine's %d cpus; speedup_vs_1 is not meaningful here", cpus, runtime.NumCPU())
	}
	return row, nil
}

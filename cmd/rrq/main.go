// Command rrq answers a reverse regret query over a CSV dataset.
//
// The CSV must have one header line and one numeric row per product. The
// query product is given as comma-separated attribute values. Output lists
// the qualified partitions, the preference-space share they cover, and a
// few example qualified utility vectors.
//
// Usage:
//
//	rrq -data cars.csv -q 0.45,0.2 -k 10 -eps 0.1
//	rrq -data cars.csv -q 0.45,0.2 -k 10 -eps 0.1 -algo apc -samples 200
//	rrq -data cars.csv -queries "0.45,0.2;0.5,0.3" -k 10 -workers 4 -timeout 30s
//	rrq -data cars.csv -q 0.45,0.2 -k 10 -query-timeout 50ms -budget 100000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rrq/internal/dataset"

	"rrq"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "CSV dataset path (header + numeric rows)")
		qStr      = flag.String("q", "", "query product, e.g. 0.45,0.2")
		qsStr     = flag.String("queries", "", "batch of query products separated by ';', e.g. 0.45,0.2;0.5,0.3")
		k         = flag.Int("k", 1, "rank relaxation k")
		eps       = flag.Float64("eps", 0.1, "regret threshold ε")
		algoStr   = flag.String("algo", "auto", "auto|sweeping|ept|apc|lpcta|brute")
		samples   = flag.Int("samples", 0, "A-PC sample count (0 = paper default)")
		skyband   = flag.Bool("skyband", true, "preprocess to the k-skyband")
		measureN  = flag.Int("measure", 50000, "Monte-Carlo samples for the share estimate; ignored where the share is exact (every 2-d answer, and 3-d E-PT, LP-CTA and brute-force answers)")
		asJSON    = flag.Bool("json", false, "emit the region as JSON instead of text")
		profile   = flag.Bool("profile", false, "print the market-share curve over ε instead of solving one query")
		timeout   = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		workers   = flag.Int("workers", 0, "worker pool size for -queries batches (0 = GOMAXPROCS)")
		intra     = flag.Int("intra-workers", 0, "workers inside each solve (A-PC sample pool; <=1 = serial)")
		metrics   = flag.Bool("metrics", false, "print solver metrics (phase timers, work counters) after solving")
		qTimeout  = flag.Duration("query-timeout", 0, "per-query wall-clock limit, restarted for each query of a batch (0 = none)")
		budget    = flag.Int64("budget", 0, "per-query work budget in solver work units (0 = none)")
		indexMode = flag.String("index", "", "build|load: serve queries from a persistent snapshot index instead of per-query preprocessing")
		indexFile = flag.String("index-file", "", "index file path: written by -index build, read by -index load")
	)
	flag.Parse()

	if *indexMode != "" && *indexMode != "build" && *indexMode != "load" {
		fmt.Fprintln(os.Stderr, `rrq: -index must be "build" or "load"`)
		os.Exit(2)
	}
	if *indexMode == "load" && *indexFile == "" {
		fmt.Fprintln(os.Stderr, "rrq: -index load requires -index-file")
		os.Exit(2)
	}
	dataNeeded := *indexMode != "load"
	queryNeeded := *indexMode == ""
	if (dataNeeded && *dataPath == "") || (queryNeeded && *qStr == "" && *qsStr == "") {
		fmt.Fprintln(os.Stderr, "rrq: -data and one of -q / -queries are required")
		flag.Usage()
		os.Exit(2)
	}

	var ds *rrq.Dataset
	if dataNeeded {
		f, err := os.Open(*dataPath)
		fatal(err)
		rows, err := dataset.ReadCSV(f)
		f.Close()
		fatal(err)
		ds, err = rrq.NewNormalizedDataset(rows)
		fatal(err)
		// The index maintains its own k-skyband prefilter incrementally, so
		// the per-build skyband cut only applies to the per-query path.
		if *skyband && *indexMode == "" {
			ds = ds.KSkyband(*k)
		}
	}

	algo, err := rrq.ParseAlgorithm(*algoStr)
	fatal(err)

	var baseOpts []rrq.Option
	if *qTimeout > 0 {
		baseOpts = append(baseOpts, rrq.WithQueryTimeout(*qTimeout))
	}
	if *budget > 0 {
		baseOpts = append(baseOpts, rrq.WithWorkBudget(*budget))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var reg *rrq.Registry
	if *metrics {
		reg = rrq.NewRegistry()
	}
	baseOpts = append(baseOpts, rrq.WithMetrics(reg))

	if *indexMode != "" {
		opts := []rrq.Option{rrq.WithAlgorithm(algo), rrq.WithIntraQueryWorkers(*intra)}
		opts = append(opts, baseOpts...)
		if *samples > 0 {
			opts = append(opts, rrq.WithSamples(*samples))
		}
		indexMain(ctx, ds, reg, *indexMode, *indexFile, *qStr, *qsStr, *k, *eps, *measureN, *workers, *asJSON, opts)
		return
	}

	if *qsStr != "" {
		opts := []rrq.Option{rrq.WithAlgorithm(algo), rrq.WithWorkers(*workers), rrq.WithIntraQueryWorkers(*intra)}
		opts = append(opts, baseOpts...)
		if *samples > 0 {
			opts = append(opts, rrq.WithSamples(*samples))
		}
		var queries []rrq.Query
		for _, s := range strings.Split(*qsStr, ";") {
			q, err := parsePoint(s)
			fatal(err)
			queries = append(queries, rrq.Query{Q: q, K: *k, Epsilon: *eps})
		}
		report, err := rrq.SolveBatch(ctx, ds, queries, opts...)
		fatal(err)
		fmt.Printf("dataset: %d products (after preprocessing), %d attributes\n", ds.Len(), ds.Dim())
		fmt.Printf("batch:   %d queries  k=%d  eps=%.3f  algo=%v  workers=%d\n",
			len(queries), *k, *eps, algo, *workers)
		for i, res := range report.Results {
			if res.Err != nil {
				fmt.Printf("  q%-3d %v  error: %v\n", i, queries[i].Q, res.Err)
				continue
			}
			fmt.Printf("  q%-3d %v  %d partition(s), %.2f%% of the preference space  (%v)\n",
				i, queries[i].Q, res.Region.NumPartitions(), 100*res.Region.Measure(*measureN), res.Elapsed.Round(time.Microsecond))
		}
		fmt.Printf("total:   %d solved, %d failed in %v (query time %v)\n",
			report.Solved, report.Failed, report.Elapsed.Round(time.Microsecond), report.QueryTime.Round(time.Microsecond))
		printMetrics(reg)
		return
	}

	q, err := parsePoint(*qStr)
	fatal(err)

	if *profile {
		sp, err := rrq.NewShareProfile(ds, q, *k, 20000, 1)
		fatal(err)
		fmt.Printf("market-share curve for q=%v at k=%d (20000 preference samples)\n", q, *k)
		for _, eps := range []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3} {
			fmt.Printf("  eps=%.2f  share=%6.2f%%\n", eps, 100*sp.Share(eps))
		}
		for _, target := range []float64{0.25, 0.5, 0.75} {
			fmt.Printf("  share %.0f%% needs eps >= %.4f\n", 100*target, sp.EpsForShare(target))
		}
		return
	}

	opts := []rrq.Option{rrq.WithAlgorithm(algo), rrq.WithIntraQueryWorkers(*intra)}
	opts = append(opts, baseOpts...)
	if *samples > 0 {
		opts = append(opts, rrq.WithSamples(*samples))
	}
	res, err := rrq.SolveContext(ctx, ds, rrq.Query{Q: q, K: *k, Epsilon: *eps}, opts...)
	fatal(err)
	region := res.Region

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(region))
		printMetrics(reg)
		return
	}

	fmt.Printf("dataset: %d products (after preprocessing), %d attributes\n", ds.Len(), ds.Dim())
	fmt.Printf("query:   q=%v  k=%d  eps=%.3f  algo=%v  solved in %v\n",
		q, *k, *eps, algo, res.Elapsed.Round(time.Microsecond))
	if region.IsEmpty() {
		fmt.Println("result:  no prospective customers — q never scores within ε of the top-k")
		printMetrics(reg)
		return
	}
	share := region.Measure(*measureN)
	fmt.Printf("result:  %d qualified partition(s) covering %.2f%% of the preference space\n",
		region.NumPartitions(), 100*share)
	if ds.Dim() == 2 {
		for _, iv := range region.Intervals2D() {
			fmt.Printf("  preference weight on attr1 in [%.4f, %.4f]\n", iv[0], iv[1])
		}
	}
	for i := int64(0); i < 3; i++ {
		if u := region.Sample(i + 1); u != nil {
			fmt.Printf("  example qualified preference: %v\n", fmtVec(u))
		}
	}
	printMetrics(reg)
}

// indexMain implements -index build/load: it constructs or restores a
// snapshot index, optionally persists it, and serves any requested queries
// from the current snapshot instead of re-preprocessing per call.
func indexMain(ctx context.Context, ds *rrq.Dataset, reg *rrq.Registry, mode, file, qStr, qsStr string, k int, eps float64, measureN, workers int, asJSON bool, opts []rrq.Option) {
	var ix *rrq.Index
	switch mode {
	case "build":
		start := time.Now()
		built, err := rrq.BuildIndex(ds, opts...)
		fatal(err)
		ix = built
		fmt.Printf("index:   built epoch %d over %d products, %d attributes in %v\n",
			ix.Version(), ix.Len(), ix.Dim(), time.Since(start).Round(time.Microsecond))
		if file != "" {
			f, err := os.Create(file)
			fatal(err)
			err = ix.Save(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			fatal(err)
			fmt.Printf("index:   saved to %s\n", file)
		}
	case "load":
		f, err := os.Open(file)
		fatal(err)
		start := time.Now()
		loaded, err := rrq.LoadIndex(f, opts...)
		f.Close()
		fatal(err)
		ix = loaded
		fmt.Printf("index:   loaded %s: epoch %d, %d products, %d attributes in %v\n",
			file, ix.Version(), ix.Len(), ix.Dim(), time.Since(start).Round(time.Microsecond))
	}

	if qsStr != "" {
		var queries []rrq.Query
		for _, s := range strings.Split(qsStr, ";") {
			q, err := parsePoint(s)
			fatal(err)
			queries = append(queries, rrq.Query{Q: q, K: k, Epsilon: eps})
		}
		report, err := ix.SolveBatch(ctx, queries, rrq.WithWorkers(workers))
		fatal(err)
		fmt.Printf("batch:   %d queries  k=%d  eps=%.3f  served from index epoch %d\n",
			len(queries), k, eps, ix.Version())
		for i, res := range report.Results {
			if res.Err != nil {
				fmt.Printf("  q%-3d %v  error: %v\n", i, queries[i].Q, res.Err)
				continue
			}
			fmt.Printf("  q%-3d %v  %d partition(s), %.2f%% of the preference space  (%v)\n",
				i, queries[i].Q, res.Region.NumPartitions(), 100*res.Region.Measure(measureN), res.Elapsed.Round(time.Microsecond))
		}
		fmt.Printf("total:   %d solved, %d failed in %v (query time %v)\n",
			report.Solved, report.Failed, report.Elapsed.Round(time.Microsecond), report.QueryTime.Round(time.Microsecond))
		printMetrics(reg)
		return
	}

	if qStr == "" {
		printMetrics(reg)
		return
	}
	q, err := parsePoint(qStr)
	fatal(err)
	res, err := ix.SolveContext(ctx, rrq.Query{Q: q, K: k, Epsilon: eps})
	fatal(err)
	region := res.Region
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(region))
		printMetrics(reg)
		return
	}
	fmt.Printf("query:   q=%v  k=%d  eps=%.3f  served from index epoch %d in %v\n",
		q, k, eps, ix.Version(), res.Elapsed.Round(time.Microsecond))
	if region.IsEmpty() {
		fmt.Println("result:  no prospective customers — q never scores within ε of the top-k")
		printMetrics(reg)
		return
	}
	fmt.Printf("result:  %d qualified partition(s) covering %.2f%% of the preference space\n",
		region.NumPartitions(), 100*region.Measure(measureN))
	printMetrics(reg)
}

// printMetrics dumps the registry's expvar-style text exposition, if one
// was requested with -metrics.
func printMetrics(reg *rrq.Registry) {
	if reg == nil {
		return
	}
	fmt.Println("metrics:")
	for _, line := range strings.Split(strings.TrimRight(reg.Text(), "\n"), "\n") {
		fmt.Println("  " + line)
	}
}

func parsePoint(s string) (rrq.Point, error) {
	parts := strings.Split(s, ",")
	p := make(rrq.Point, len(parts))
	for i, f := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad query component %q: %w", f, err)
		}
		p[i] = x
	}
	return p, nil
}

func fmtVec(u rrq.Vector) string {
	parts := make([]string, len(u))
	for i, x := range u {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrq:", err)
		os.Exit(1)
	}
}

// Command benchdiff compares a freshly generated bench report
// (BENCH_solve.json) against a committed baseline and exits nonzero on
// regression. CI machines differ from the machine that produced the
// baseline, so the gates use only machine-independent signals:
//
//   - allocations per query (deterministic for a given code path) against
//     the baseline, per scenario row and per cpu-matrix row;
//   - each scenario row's work counters (Stats) against the baseline,
//     exactly: the solvers are deterministic, so a differing counter means
//     the code now does different work, on any machine and at any
//     GOMAXPROCS;
//   - each index row's plane-store hits and misses per query against the
//     baseline, exactly: the row replays a fixed query stream serially, so
//     a differing count means the store admits or serves differently;
//   - the cross-query-sharing contract within the current report: for every
//     (scenario, cpus) pair in the cpu matrix, the shared row must beat the
//     independent row on ns/query and on planes classified per query (the
//     classification work a batch shares; deterministic, so it shows
//     whether sharing happened on any machine);
//   - the shared/independent ns ratio against the baseline's ratio, which
//     divides out the machine.
//
// Raw ns/query and speedup-vs-1-core are machine-dependent and never gated.
// Rows present in the baseline but missing from the current report fail the
// run: a silently dropped scenario must not pass as "no regression".
//
// Usage:
//
//	benchdiff -baseline results/BENCH_baseline.json -current BENCH_solve.json
//
// After an intended change to what the gates measure, regenerate the
// committed baseline with the same suite CI runs, at the GOMAXPROCS of CI's
// runners (the scenario rows run at the ambient GOMAXPROCS, and each
// processor's first solve grows a cold pooled arena, so their allocs/query
// rise with it):
//
//	GOMAXPROCS=4 go run ./cmd/rrqbench -benchjson results/BENCH_baseline.json -cpus 1,2,4,8
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// row mirrors the benchResult fields benchdiff gates on. Stats is the
// row's summed work account, keyed by counter name.
type row struct {
	Name       string           `json:"name"`
	NsPerQuery int64            `json:"ns_per_query"`
	AllocsPerQ int64            `json:"allocs_per_query"`
	Stats      map[string]int64 `json:"stats"`
}

// anytimeRow mirrors the anytimeBenchResult fields benchdiff gates on. The
// volume-error columns come from a fixed-seed paired Monte-Carlo measurement,
// so they are machine-independent and gated directly:
//
//   - the curve must exist (a silently dropped anytime suite must not pass);
//   - volume_error_max must stay within error_bound (+slack): the accuracy
//     contract the anytime tier advertises via ρ;
//   - volume_error_mean must not be meaningfully negative, which would mean
//     an anytime region covering space the exact region does not — an
//     unsoundness, not a perf regression;
//   - along each curve (ascending budget) volume_error_max and error_bound
//     must be non-increasing, and the final rung must run uncut — the
//     monotone anytime contract.
type anytimeRow struct {
	Name       string  `json:"name"`
	Curve      string  `json:"curve"`
	Budget     int     `json:"budget"`
	Cut        bool    `json:"cut"`
	ErrorBound float64 `json:"error_bound"`
	VolErrMean float64 `json:"volume_error_mean"`
	VolErrMax  float64 `json:"volume_error_max"`
}

// indexRow mirrors the indexBenchResult fields benchdiff gates on.
type indexRow struct {
	Name            string  `json:"name"`
	PlaneHitsPerQ   float64 `json:"plane_hits_per_query"`
	PlaneMissesPerQ float64 `json:"plane_misses_per_query"`
}

// matrixRow mirrors the cpuMatrixRow fields benchdiff gates on.
type matrixRow struct {
	Name       string  `json:"name"`
	CPUs       int     `json:"cpus"`
	Shared     bool    `json:"shared"`
	NsPerQuery int64   `json:"ns_per_query"`
	AllocsPerQ int64   `json:"allocs_per_query"`
	PlanesPerQ float64 `json:"planes_classified_per_query"`
}

// report is the subset of the BENCH_solve.json document benchdiff reads.
type report struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Results    []row        `json:"results"`
	CPUMatrix  []matrixRow  `json:"cpu_matrix"`
	Index      []indexRow   `json:"index_results"`
	Anytime    []anytimeRow `json:"anytime_results"`
}

type matrixKey struct {
	name   string
	cpus   int
	shared bool
}

func load(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline report (required)")
		currentPath  = flag.String("current", "", "freshly generated report to check (required)")
		allocsTol    = flag.Float64("allocs-tol", 1.25, "max allowed allocs/query growth factor vs baseline")
		allocsSlack  = flag.Int64("allocs-slack", 16, "absolute allocs/query slack added to the tolerance (keeps tiny rows from failing on ±1)")
		sharedNsTol  = flag.Float64("shared-ns-tol", 0.90, "cpu matrix: shared ns/query must be ≤ independent × this (shared must win)")
		sharedPlTol  = flag.Float64("shared-planes-tol", 0.90, "cpu matrix: shared planes classified/query must be ≤ independent × this")
		ratioTol     = flag.Float64("ratio-tol", 1.5, "max allowed growth of the shared/independent ns ratio vs the baseline's ratio")
		anytimeSlack = flag.Float64("anytime-slack", 0.02, "Monte-Carlo slack added to the anytime error bound (and allowed below zero) before a volume-error row fails")
	)
	flag.Parse()
	if *baselinePath == "" || *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -current are both required")
		flag.Usage()
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(*currentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Scenario rows: presence, allocs regression and exact work counters.
	curRows := make(map[string]row, len(cur.Results))
	for _, r := range cur.Results {
		curRows[r.Name] = r
	}
	checked := 0
	for _, b := range base.Results {
		c, ok := curRows[b.Name]
		if !ok {
			failf("result %-18s missing from current report", b.Name)
			continue
		}
		checked++
		if limit := int64(float64(b.AllocsPerQ)**allocsTol) + *allocsSlack; c.AllocsPerQ > limit {
			failf("result %-18s allocs/query %d exceeds baseline %d (limit %d = %.2fx + %d)",
				b.Name, c.AllocsPerQ, b.AllocsPerQ, limit, *allocsTol, *allocsSlack)
		}
		checked++
		for _, f := range statsDiff(b.Stats, c.Stats) {
			failf("result %-18s stats %s", b.Name, f)
		}
	}

	// Index rows: presence and exact plane-store traffic.
	checked += len(base.Index)
	for _, f := range indexDiff(base.Index, cur.Index) {
		failf("index  %s", f)
	}

	// CPU matrix rows: presence + allocs regression.
	baseMatrix := make(map[matrixKey]matrixRow, len(base.CPUMatrix))
	for _, r := range base.CPUMatrix {
		baseMatrix[matrixKey{r.Name, r.CPUs, r.Shared}] = r
	}
	curMatrix := make(map[matrixKey]matrixRow, len(cur.CPUMatrix))
	for _, r := range cur.CPUMatrix {
		curMatrix[matrixKey{r.Name, r.CPUs, r.Shared}] = r
	}
	for _, b := range base.CPUMatrix {
		k := matrixKey{b.Name, b.CPUs, b.Shared}
		c, ok := curMatrix[k]
		if !ok {
			failf("matrix %-14s cpus=%d shared=%-5v missing from current report", b.Name, b.CPUs, b.Shared)
			continue
		}
		checked++
		if limit := int64(float64(b.AllocsPerQ)**allocsTol) + *allocsSlack; c.AllocsPerQ > limit {
			failf("matrix %-14s cpus=%d shared=%-5v allocs/query %d exceeds baseline %d (limit %d)",
				b.Name, b.CPUs, b.Shared, c.AllocsPerQ, b.AllocsPerQ, limit)
		}
	}

	// Sharing contract within the current report, and ratio vs baseline.
	for k, sh := range curMatrix {
		if !k.shared {
			continue
		}
		ind, ok := curMatrix[matrixKey{k.name, k.cpus, false}]
		if !ok {
			failf("matrix %-14s cpus=%d has a shared row but no independent row", k.name, k.cpus)
			continue
		}
		checked++
		if ind.NsPerQuery > 0 && float64(sh.NsPerQuery) > float64(ind.NsPerQuery)**sharedNsTol {
			failf("matrix %-14s cpus=%d shared %d ns/query not below independent %d ns/query × %.2f",
				k.name, k.cpus, sh.NsPerQuery, ind.NsPerQuery, *sharedNsTol)
		}
		if ind.PlanesPerQ <= 0 {
			failf("matrix %-14s cpus=%d independent row reports no planes classified: the sharing measurement is missing",
				k.name, k.cpus)
		} else if sh.PlanesPerQ > ind.PlanesPerQ**sharedPlTol {
			failf("matrix %-14s cpus=%d shared %.1f planes classified/query not below independent %.1f × %.2f",
				k.name, k.cpus, sh.PlanesPerQ, ind.PlanesPerQ, *sharedPlTol)
		}
		bsh, ok1 := baseMatrix[matrixKey{k.name, k.cpus, true}]
		bind, ok2 := baseMatrix[matrixKey{k.name, k.cpus, false}]
		if ok1 && ok2 && bind.NsPerQuery > 0 && ind.NsPerQuery > 0 && bsh.NsPerQuery > 0 {
			baseRatio := float64(bsh.NsPerQuery) / float64(bind.NsPerQuery)
			curRatio := float64(sh.NsPerQuery) / float64(ind.NsPerQuery)
			if curRatio > baseRatio**ratioTol {
				failf("matrix %-14s cpus=%d shared/independent ns ratio %.3f regressed past baseline %.3f × %.2f",
					k.name, k.cpus, curRatio, baseRatio, *ratioTol)
			}
		}
	}

	// Anytime accuracy curve: presence, the ρ-backed error bound, soundness
	// of the paired measurement, and monotonicity along each budget ladder.
	if len(cur.Anytime) == 0 {
		failf("anytime_results missing or empty in current report")
	}
	curAnytime := make(map[string]anytimeRow, len(cur.Anytime))
	for _, r := range cur.Anytime {
		curAnytime[r.Name] = r
	}
	for _, b := range base.Anytime {
		if _, ok := curAnytime[b.Name]; !ok {
			failf("anytime %-16s missing from current report", b.Name)
		}
	}
	curves := map[string][]anytimeRow{}
	for _, r := range cur.Anytime {
		checked++
		if r.VolErrMax > r.ErrorBound+*anytimeSlack {
			failf("anytime %-16s volume_error_max %.4f exceeds error_bound %.4f + %.3f slack",
				r.Name, r.VolErrMax, r.ErrorBound, *anytimeSlack)
		}
		if r.VolErrMean < -*anytimeSlack {
			failf("anytime %-16s volume_error_mean %.4f is negative: anytime region exceeds the exact region",
				r.Name, r.VolErrMean)
		}
		curves[r.Curve] = append(curves[r.Curve], r)
	}
	for name, rows := range curves {
		// Rows arrive in ladder order (ascending budget); verify rather than
		// assume, then hold the curve to the monotone anytime contract.
		for i := 1; i < len(rows); i++ {
			checked++
			if rows[i].Budget <= rows[i-1].Budget {
				failf("anytime curve %-10s budgets not ascending: %d after %d", name, rows[i].Budget, rows[i-1].Budget)
				continue
			}
			if rows[i].VolErrMax > rows[i-1].VolErrMax {
				failf("anytime curve %-10s volume_error_max grew from %.4f (budget %d) to %.4f (budget %d)",
					name, rows[i-1].VolErrMax, rows[i-1].Budget, rows[i].VolErrMax, rows[i].Budget)
			}
			if rows[i].ErrorBound > rows[i-1].ErrorBound {
				failf("anytime curve %-10s error_bound grew from %.4f (budget %d) to %.4f (budget %d)",
					name, rows[i-1].ErrorBound, rows[i-1].Budget, rows[i].ErrorBound, rows[i].Budget)
			}
		}
		if last := rows[len(rows)-1]; last.Cut {
			failf("anytime curve %-10s final rung (budget %d) was cut — the ladder never ran to completion", name, last.Budget)
		}
	}

	if len(failures) > 0 {
		fmt.Printf("benchdiff: %d regression(s) (baseline %s @ %s, current %s @ %s):\n",
			len(failures), *baselinePath, base.GoVersion, *currentPath, cur.GoVersion)
		for _, f := range failures {
			fmt.Println("  FAIL", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — %d checks against %s (current gomaxprocs=%d, baseline gomaxprocs=%d)\n",
		checked, *baselinePath, cur.GOMAXPROCS, base.GOMAXPROCS)
}

// statsDiff describes, in counter-name order, each counter of the
// baseline's Stats whose current value differs or is missing.
func statsDiff(base, cur map[string]int64) []string {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		c, ok := cur[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s missing from current report (baseline %d)", name, base[name]))
		case c != base[name]:
			out = append(out, fmt.Sprintf("%s %d differs from baseline %d", name, c, base[name]))
		}
	}
	return out
}

// indexDiff describes, in baseline order, each baseline index row that is
// missing from cur or whose plane hits or misses per query differ.
func indexDiff(base, cur []indexRow) []string {
	byName := make(map[string]indexRow, len(cur))
	for _, r := range cur {
		byName[r.Name] = r
	}
	var out []string
	for _, b := range base {
		c, ok := byName[b.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%-18s missing from current report", b.Name))
		case c.PlaneHitsPerQ != b.PlaneHitsPerQ || c.PlaneMissesPerQ != b.PlaneMissesPerQ:
			out = append(out, fmt.Sprintf("%-18s plane hits/misses per query %g/%g differ from baseline %g/%g",
				b.Name, c.PlaneHitsPerQ, c.PlaneMissesPerQ, b.PlaneHitsPerQ, b.PlaneMissesPerQ))
		}
	}
	return out
}

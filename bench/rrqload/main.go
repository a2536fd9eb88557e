// Command rrqload is the end-to-end benchmark of rrqd. For each workload
// it starts the server in-process on a loopback port, configured as
// cmd/rrqd configures it for the workload's flags, drives a seeded
// closed-loop request stream over real HTTP, checks sampled answers
// against the library, and prints every metric with its unit and sample
// count. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the exit code is 0 only when
// every request succeeded and every check passed.
//
// Usage, from bench/ (bench/run.sh builds it and runs it from the
// repository root):
//
//	go run ./rrqload -seed 1                          # every workload
//	go run ./rrqload -workload hot-2d -trace 1        # adds a traced run and the per-layer metrics
//	go run ./rrqload -workload heavy-4d -trace spans.jsonl
//	go run ./rrqload -workload mixed-3d -runs 5 -json runs.json
//
// bench/README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// minSetups is the fewest times an untraced phase sets the server up;
// setup_s is the median.
const minSetups = 3

// scratch holds WAL directories, relative to the working directory.
var scratch = filepath.Join(".bench_build", "tmp")

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "input seed: the query pool, request stream, warm-up and writes derive from it")
		secs    = flag.Int("seconds", 10, "sizes each stream: requests = the workload's rate × seconds")
		traceF  = flag.String("trace", "0", "0 = untraced; 1 = add a traced run and report the per-layer metrics; any other value also appends the spans as JSONL to that file")
		runs    = flag.Int("runs", 1, "run each workload this many times with the same seed; metrics report the median")
		jsonOut = flag.String("json", "", "write each metric's median and quartiles over the runs to this file")
	)
	flag.Parse()
	correct, err := run(*name, *seed, *secs, *traceF, *runs, *jsonOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrqload:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, secs int, traceF string, runs int, jsonOut string) (bool, error) {
	if secs < 1 || runs < 1 {
		return false, fmt.Errorf("-seconds and -runs must be at least 1")
	}
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.name {
			selected = append(selected, w.sized(secs))
		}
	}
	if len(selected) == 0 {
		return false, fmt.Errorf("unknown workload %q", name)
	}
	traced := traceF != "0" && traceF != ""
	tracePath := ""
	if traced && traceF != "1" {
		tracePath = traceF
	}
	// defs go into the JSON line; -runs and -json summarize summed.
	n, defs := minSetups, endToEnd
	summed := append(append([]metricDef(nil), endToEnd...), clientTimings...)
	if traced {
		n, defs, summed = 1, perLayer, perLayer // a traced invocation reports per-layer metrics, not setup_s
	}

	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]metricJSON)}
	summary := make(map[string]map[string]runSummary)

	for _, w := range selected {
		fmt.Printf("== %s: %d requests, %d client(s); rrqd %s\n",
			w.name, w.requests, w.clients, w.rrqdFlags())
		var reps []*report
		for i := 1; i <= runs; i++ {
			r, err := runWorkload(scratch, w, seed, n, traced, tracePath != "")
			if err != nil {
				return false, err
			}
			printRun(r, i, traced)
			if tracePath != "" {
				for j := range r.spans {
					r.spans[j].Workload, r.spans[j].Run = w.name, i
				}
				if err := writeSpans(tracePath, r.spans); err != nil {
					return false, err
				}
				r.spans = nil
			}
			result.Attempted += r.attempted
			result.Failed += r.failed
			result.Correct = result.Correct && r.correct()
			reps = append(reps, r)
		}
		s := summarize(reps, summed)
		summary[w.name] = s
		if runs > 1 {
			printSummary(s, summed, runs)
		}
		for _, d := range defs {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "." + d.name
			}
			result.Metrics[key] = metricJSON{Value: s[d.name].Median, Unit: d.unit}
		}
	}
	if jsonOut != "" {
		b, err := json.MarshalIndent(map[string]any{
			"seed": seed, "seconds": secs, "runs": runs, "traced": traced, "workloads": summary,
		}, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return result.Correct, nil
}

// runSummary is one metric over a workload's runs.
type runSummary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

func summarize(reps []*report, defs []metricDef) map[string]runSummary {
	out := make(map[string]runSummary, len(defs))
	for _, d := range defs {
		var vals []float64
		for _, r := range reps {
			vals = append(vals, r.metrics[d.name].value)
		}
		q1, med, q3 := quartiles(vals)
		out[d.name] = runSummary{Unit: d.unit, Median: med, Q1: q1, Q3: q3, Spread: spread(vals), Values: vals}
	}
	return out
}

// printRun prints one run: the end-to-end metrics (the bounded ones, the
// client timings, error_ratio and, with writes, write_p50_ms), the rest of
// the per-layer metrics when traced, and the correctness verdict.
func printRun(r *report, i int, traced bool) {
	verdict := "correct"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Printf("  run %d: %d requests attempted, %d failed, %s\n", i, r.attempted, r.failed, verdict)
	for _, p := range r.problems {
		fmt.Printf("    FAIL %s\n", p)
	}
	defs := append(append(append([]metricDef(nil), endToEnd...), clientTimings...),
		metricDef{"error_ratio", "ratio", "lower"}, metricDef{"write_p50_ms", "ms", "lower"})
	if traced {
		defs = append(defs, perLayer[len(clientTimings):]...)
	}
	for _, d := range defs {
		s, ok := r.metrics[d.name]
		if !ok {
			continue // write_p50_ms on a read-only workload
		}
		line := fmt.Sprintf("    %-32s %14.6g %-6s", d.name, s.value, d.unit)
		if s.n > 0 {
			line += fmt.Sprintf(" n=%d", s.n)
		}
		if s.beyond > 0 {
			line += fmt.Sprintf(" beyond=%d", s.beyond)
		}
		fmt.Println(line)
	}
}

func printSummary(s map[string]runSummary, defs []metricDef, runs int) {
	fmt.Printf("  over %d runs: median [q1, q3] spread=(q3-q1)/median\n", runs)
	for _, d := range defs {
		m := s[d.name]
		fmt.Printf("    %-32s %14.6g [%.6g, %.6g] %-6s spread=%.4f\n", d.name, m.Median, m.Q1, m.Q3, m.Unit, m.Spread)
	}
}

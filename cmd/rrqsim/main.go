// Command rrqsim runs the closed-loop (or open-loop) workload simulator
// against rrqd's own handler, built in-process from rrqd's dataset, index
// and serving flags (same names, same defaults), and prints per-policy
// latency percentiles, shed rate and cache effectiveness.
//
// Usage:
//
//	rrqsim -synthetic indep:2000:2:1 -queries 200 -clients 8
//	rrqsim -synthetic indep:2000:3:1 -policy cap -capacity 2 -queue 4 -arrival 500
//	rrqsim -synthetic indep:2000:2:1 -compare          # policy × cache matrix
//	rrqsim -synthetic indep:2000:2:1 -compare -json -  # machine-readable
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rrq"
	"rrq/internal/server"
	"rrq/internal/sim"
)

func main() {
	sf := server.RegisterFlags(flag.CommandLine)
	var (
		queries  = flag.Int("queries", 200, "query stream length")
		clients  = flag.Int("clients", 8, "closed-loop client count")
		arrival  = flag.Float64("arrival", 0, "open-loop arrivals/second (0 = closed loop)")
		kmin     = flag.Int("kmin", 2, "minimum query rank")
		kmax     = flag.Int("kmax", 8, "maximum query rank")
		epsStr   = flag.String("eps", "0.05,0.1,0.2", "comma-separated regret tolerance levels")
		repeat   = flag.Float64("repeat", 0.5, "probability a query repeats an earlier one")
		seed     = flag.Int64("seed", 42, "workload seed")
		tenants  = flag.Int("tenants", 4, "synthetic tenant count the requests are spread over")
		compare  = flag.Bool("compare", false, "run the full policy × cache matrix (overriding -policy and -cache) instead of one scenario")
		jsonPath = flag.String("json", "", `write reports as JSON to this path ("-" = stdout)`)
	)
	flag.Parse()

	ds, err := sf.Dataset()
	fatal(err)

	var eps []float64
	for _, s := range strings.Split(*epsStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		fatal(err)
		eps = append(eps, v)
	}
	w := sim.Workload{Queries: *queries, KMin: *kmin, KMax: *kmax, EpsLevels: eps, Repeat: *repeat, Seed: *seed}
	stream := w.Generate(ds)

	type scenario struct {
		Name   string `json:"name"`
		Policy string `json:"policy"`
		Cache  int    `json:"cache"`
	}
	scenarios := []scenario{{Name: "run", Policy: sf.Policy, Cache: sf.Cache}}
	if *compare {
		scenarios = nil
		for _, p := range []server.AdmissionPolicy{server.AdmitAlways, server.AdmitCap} {
			for _, c := range []int{0, sf.Cache} {
				name := fmt.Sprintf("%s/cache=%d", p, c)
				scenarios = append(scenarios, scenario{Name: name, Policy: string(p), Cache: c})
			}
		}
	}

	type record struct {
		scenario
		Report sim.Report `json:"report"`
	}
	var records []record
	for _, sc := range scenarios {
		// Each scenario serves from a fresh index and server, so cache
		// state never leaks between rows.
		sf.Policy, sf.Cache = sc.Policy, sc.Cache
		reg := rrq.NewRegistry()
		opts, err := sf.IndexOptions(reg)
		fatal(err)
		cfg, err := sf.Config(reg)
		fatal(err)
		cfg.Index, err = rrq.BuildIndex(ds, opts...)
		fatal(err)
		srv, err := server.New(cfg)
		fatal(err)
		rep, err := sim.Run(context.Background(), sim.Config{
			Handler:     srv.Handler(),
			Queries:     stream,
			Clients:     *clients,
			ArrivalRate: *arrival,
			ArrivalSeed: *seed,
			TenantCount: *tenants,
		})
		fatal(err)
		records = append(records, record{scenario: sc, Report: rep})
		fmt.Printf("%-16s %s\n", sc.Name, rep)
	}

	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			fatal(err)
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(records))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrqsim:", err)
		os.Exit(1)
	}
}

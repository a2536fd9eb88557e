// Marketshare sizes the prospective market for several candidate designs on
// the NBA stand-in dataset: for each candidate query point it computes the
// share of the preference space on which the candidate is a (k,ε)-regret
// point, the production-planning use case from the paper's introduction.
package main

import (
	"context"
	"fmt"
	"log"

	"rrq"
)

func main() {
	ctx := context.Background()
	ds, err := rrq.RealDataset("NBA", 3000)
	if err != nil {
		log.Fatal(err)
	}
	// Reverse queries only ever involve the k-skyband.
	const k, eps = 5, 0.1
	market := ds.KSkyband(k)
	fmt.Printf("market: %d player profiles (k-skyband of %d), %d attributes\n\n",
		market.Len(), ds.Len(), ds.Dim())

	// Candidate "player designs" to evaluate: a balanced all-rounder, a
	// specialist, and a budget profile.
	candidates := map[string]rrq.Point{
		"all-rounder": {0.90, 0.90, 0.90, 0.90, 0.90},
		"specialist":  {0.99, 0.97, 0.55, 0.55, 0.55},
		"bench":       {0.70, 0.70, 0.70, 0.70, 0.70},
	}

	fmt.Printf("%-12s  %10s  %12s  %s\n", "candidate", "share", "partitions", "example preference")
	for name, q := range candidates {
		res, err := rrq.SolveContext(ctx, market, rrq.Query{Q: q, K: k, Epsilon: eps})
		if err != nil {
			log.Fatal(err)
		}
		region := res.Region
		example := "-"
		if u := region.Sample(1); u != nil {
			example = fmt.Sprintf("%.2f", []float64(u))
		}
		fmt.Printf("%-12s  %9.2f%%  %12d  %s\n",
			name, 100*region.Measure(30000), region.NumPartitions(), example)
	}

	fmt.Println("\nA large share means many preference profiles would shortlist the")
	fmt.Println("candidate: plan a big production run. A tiny share says niche.")

	// The share profile answers design questions in one pass: how tolerant
	// must customers be before the specialist reaches a third of the market?
	sp, err := rrq.NewShareProfile(market, candidates["specialist"], k, 20000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nspecialist share curve (one sampling pass):")
	for _, eps := range []float64{0.0, 0.05, 0.1, 0.2, 0.3} {
		fmt.Printf("  eps=%.2f → %5.1f%%\n", eps, 100*sp.Share(eps))
	}
	fmt.Printf("  share reaches 33%% at eps ≈ %.3f\n", sp.EpsForShare(1.0/3))
}

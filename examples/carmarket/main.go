// Carmarket reproduces the paper's motivating scenario (Table 1): a
// manufacturer sizes the market for a new car model and sees why score-based
// evaluation (RRQ) finds prospective customers that rank-based evaluation
// (reverse top-k) dismisses.
package main

import (
	"context"
	"fmt"
	"log"

	"rrq"
)

func main() {
	ctx := context.Background()
	// Table 1: horsepower (×100 hp) and safety rating.
	cars := [][]float64{
		{4.3, 5.0}, // p1: balanced
		{4.5, 4.0}, // p2: strong, safe
		{5.0, 1.0}, // p3: muscle car
	}
	ds, err := rrq.NewDataset(cars)
	if err != nil {
		log.Fatal(err)
	}
	// The query car under evaluation.
	q := rrq.Point{4.5, 2.0}

	// A horsepower-focused customer: u1 = (0.9, 0.1).
	u1 := rrq.Vector{0.9, 0.1}
	fmt.Println("customer u1 = (0.9, 0.1):")
	for i, car := range cars {
		fmt.Printf("  f(p%d) = %.2f\n", i+1, score(car, u1))
	}
	fmt.Printf("  f(q)  = %.2f — q ranks LAST among the four cars\n", score(q, u1))
	fmt.Printf("  1-regret ratio of q: %.3f\n\n", rrq.RegretRatio(ds, q, 1, u1))

	// Rank-based view: who has q in their top-3? (reverse top-k, k=3)
	rtk, err := rrq.ReverseTopK(ds, q, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reverse top-3 market share (rank-based): %5.1f%%  — u1 qualifies: %v\n",
		100*rtk.Measure(50000), rtk.Contains(u1))

	// Score-based view: who scores q within 10%% of the best? (RRQ)
	res, err := rrq.SolveContext(ctx, ds, rrq.Query{Q: q, K: 1, Epsilon: 0.1})
	if err != nil {
		log.Fatal(err)
	}
	region := res.Region
	fmt.Printf("RRQ (k=1, eps=0.1) market share (score-based): %5.1f%%  — u1 qualifies: %v\n",
		100*region.Measure(50000), region.Contains(u1))

	fmt.Println("\nThe rank-based query dismisses u1 even though q's score is within")
	fmt.Println("8% of the winner — the reverse regret query keeps that customer.")

	// Production-plan sweep: market share as the tolerance grows.
	fmt.Println("\nmarket share vs tolerance ε:")
	for _, eps := range []float64{0.0, 0.05, 0.1, 0.15, 0.2} {
		r, err := rrq.SolveContext(ctx, ds, rrq.Query{Q: q, K: 1, Epsilon: eps})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  eps=%.2f → %5.1f%%\n", eps, 100*r.Region.Measure(50000))
	}
}

func score(p []float64, u rrq.Vector) float64 {
	var s float64
	for i := range p {
		s += p[i] * u[i]
	}
	return s
}

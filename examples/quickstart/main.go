// Quickstart: run a reverse regret query end to end on the paper's running
// example (Table 3) and inspect the answer region.
package main

import (
	"context"
	"fmt"
	"log"

	"rrq"
)

func main() {
	ctx := context.Background()
	// The market: three products with two attributes each, already
	// normalized to (0,1].
	ds, err := rrq.NewDataset([][]float64{
		{0.20, 0.92}, // p1
		{0.70, 0.54}, // p2
		{0.60, 0.30}, // p3
	})
	if err != nil {
		log.Fatal(err)
	}

	// Which customers would seriously consider q = (0.4, 0.7)? We accept
	// any preference under which q scores within 10% of the 2nd-best
	// product (k = 2, ε = 0.1).
	query := rrq.Query{Q: rrq.Point{0.4, 0.7}, K: 2, Epsilon: 0.1}
	res, err := rrq.SolveContext(ctx, ds, query)
	if err != nil {
		log.Fatal(err)
	}
	region := res.Region

	fmt.Printf("solved %v in %v\n", query, res.Elapsed)
	fmt.Printf("qualified partitions: %d\n", region.NumPartitions())
	fmt.Printf("preference-space share: %.1f%%\n", 100*region.Measure(50000))

	// In two dimensions the region is a set of weight intervals: a
	// preference is (t, 1−t) where t is the weight on attribute 1.
	for _, iv := range region.Intervals2D() {
		fmt.Printf("attr1 weight in [%.3f, %.3f] → q is a (2, 0.1)-regret point\n", iv[0], iv[1])
	}

	// Check a specific customer: Example 3.3 of the paper.
	u := rrq.Vector{0.5, 0.5}
	fmt.Printf("u = %v qualifies: %v (2-regret ratio %.3f)\n",
		u, region.Contains(u), rrq.RegretRatio(ds, query.Q, query.K, u))
}

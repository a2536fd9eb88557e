// Dynamicmarket demonstrates the dynamic extension (the paper's stated
// future work): maintaining a product's prospective-customer region while
// competitors enter and leave the market. An Index publishes a new epoch
// per mutation, and a one-entry result cache re-solves the standing query
// at most once per epoch.
package main

import (
	"context"
	"fmt"
	"log"

	"rrq"
)

func main() {
	ctx := context.Background()
	// A small 3-attribute market and our product q.
	ds, err := rrq.NewDataset([][]float64{
		{0.80, 0.30, 0.40},
		{0.30, 0.85, 0.35},
		{0.35, 0.30, 0.90},
		{0.55, 0.55, 0.50},
	})
	if err != nil {
		log.Fatal(err)
	}
	q := rrq.Query{Q: rrq.Point{0.65, 0.6, 0.55}, K: 2, Epsilon: 0.1}

	ix, err := rrq.BuildIndex(ds, rrq.WithAlgorithm(rrq.EPTAlgo), rrq.WithResultCache(1))
	if err != nil {
		log.Fatal(err)
	}
	show := func(event string) {
		res, err := ix.SolveContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		r := res.Region
		fmt.Printf("%-38s market=%d  share=%5.1f%%  partitions=%d\n",
			event, ix.Len(), 100*r.Measure(30000), r.NumPartitions())
	}

	show("initial market")

	// A strong competitor launches: our share shrinks (incremental clip).
	if _, err := ix.Insert(rrq.Point{0.75, 0.75, 0.70}); err != nil {
		log.Fatal(err)
	}
	show("competitor (0.75,0.75,0.70) launches")

	// Another one: with k=2 two strong rivals hurt badly.
	if _, err := ix.Insert(rrq.Point{0.72, 0.78, 0.68}); err != nil {
		log.Fatal(err)
	}
	show("second competitor launches")

	// The first competitor exits (recall, discontinued…): share recovers.
	if _, err := ix.Delete(4); err != nil {
		log.Fatal(err)
	}
	show("first competitor exits")

	// A flood of weak products changes nothing.
	for i := 0; i < 5; i++ {
		if _, err := ix.Insert(rrq.Point{0.2, 0.2, 0.25}); err != nil {
			log.Fatal(err)
		}
	}
	show("five weak products launch")
}

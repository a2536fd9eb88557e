package rrq_test

import (
	"context"
	"fmt"

	"rrq"
)

// The running example of the paper (Table 3 / Example 3.3): find every
// customer preference under which q = (0.4, 0.7) is a (2, 0.1)-regret
// point.
func ExampleSolveContext() {
	ds, _ := rrq.NewDataset([][]float64{
		{0.20, 0.92},
		{0.70, 0.54},
		{0.60, 0.30},
	})
	res, _ := rrq.SolveContext(context.Background(), ds, rrq.Query{Q: rrq.Point{0.4, 0.7}, K: 2, Epsilon: 0.1})
	fmt.Println(res.Region.Contains(rrq.Vector{0.5, 0.5}))
	fmt.Printf("%.3f\n", rrq.RegretRatio(ds, rrq.Point{0.4, 0.7}, 2, rrq.Vector{0.5, 0.5}))
	// Output:
	// true
	// 0.018
}

// AppendJSON writes a region's MarshalJSON bytes into a caller's buffer,
// so answers written one after another through the same buffer stop
// allocating once it is big enough.
func ExampleRegion_AppendJSON() {
	ds, _ := rrq.NewDataset([][]float64{
		{0.20, 0.92},
		{0.70, 0.54},
		{0.60, 0.30},
	})
	var buf []byte
	for _, k := range []int{1, 2} {
		res, _ := rrq.SolveContext(context.Background(), ds, rrq.Query{Q: rrq.Point{0.4, 0.7}, K: k, Epsilon: 0.1})
		buf, _ = res.Region.AppendJSON(buf[:0])
		fmt.Println(string(buf))
	}
	// Output:
	// {"dim":2,"intervals":[[0.3678160919540232,0.4819819819819819]]}
	// {"dim":2,"intervals":[[0,0.7543859649122806]]}
}

// Reverse top-k misses score-close products that the reverse regret query
// keeps — the paper's Table 1 car market.
func ExampleReverseTopK() {
	cars, _ := rrq.NewDataset([][]float64{
		{4.3, 5.0},
		{4.5, 4.0},
		{5.0, 1.0},
	})
	q := rrq.Point{4.5, 2.0}
	u1 := rrq.Vector{0.9, 0.1} // a horsepower-focused customer

	rankBased, _ := rrq.ReverseTopK(cars, q, 3)
	scoreBased, _ := rrq.SolveContext(context.Background(), cars, rrq.Query{Q: q, K: 1, Epsilon: 0.1})
	fmt.Println(rankBased.Contains(u1), scoreBased.Region.Contains(u1))
	// Output:
	// false true
}

// A k-skyband prune shrinks the market without changing any reverse query
// answer.
func ExampleDataset_KSkyband() {
	ds := rrq.SyntheticDataset(rrq.Independent, 1000, 3, 7)
	pruned := ds.KSkyband(5)
	fmt.Println(ds.Len(), pruned.Len() < ds.Len())
	// Output:
	// 1000 true
}

// Maintaining an answer while the market changes (the paper's future work):
// every mutation publishes a new epoch, and the one-entry result cache
// re-solves the standing query at most once per epoch.
func ExampleIndex() {
	ds, _ := rrq.NewDataset([][]float64{
		{0.8, 0.3},
		{0.3, 0.8},
	})
	ix, _ := rrq.BuildIndex(ds, rrq.WithAlgorithm(rrq.EPTAlgo), rrq.WithResultCache(1))
	q := rrq.Query{Q: rrq.Point{0.6, 0.6}, K: 1, Epsilon: 0.1}
	res, _ := ix.SolveContext(context.Background(), q)
	before := res.Region.Measure(0) // exact for 2-d regions
	_, _ = ix.Insert(rrq.Point{0.9, 0.9})
	res, _ = ix.SolveContext(context.Background(), q)
	after := res.Region.Measure(0)
	fmt.Println(before > 0, after < before)
	// Output:
	// true true
}

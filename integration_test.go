package rrq

// Integration tests: the full pipeline — generation, normalization,
// k-skyband preprocessing, solving with every algorithm — on each of the
// real-dataset stand-ins, cross-checked through the public API only.

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestIntegrationRealDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	for _, name := range []string{"Island", "Weather", "Car", "NBA"} {
		name := name
		t.Run(name, func(t *testing.T) {
			ds, err := RealDataset(name, 2000)
			if err != nil {
				t.Fatal(err)
			}
			const k, eps = 5, 0.1
			market := ds.KSkyband(k)
			q := Query{Q: ds.RandomQuery(11), K: k, Epsilon: eps}

			exact, err := regionOf(SolveContext(context.Background(), market, q, WithAlgorithm(EPTAlgo)))
			if err != nil {
				t.Fatal(err)
			}
			// The answer over the full dataset must match the answer over
			// the skyband.
			full, err := regionOf(SolveContext(context.Background(), ds, q, WithAlgorithm(EPTAlgo)))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact.Measure(20000)-full.Measure(20000)) > 0.01 {
				t.Error("skyband preprocessing changed the answer")
			}
			// LP-CTA agrees with E-PT.
			lpcta, err := regionOf(SolveContext(context.Background(), market, q, WithAlgorithm(LPCTAAlgo)))
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exact.Measure(20000)-lpcta.Measure(20000)) > 0.01 {
				t.Error("LP-CTA disagrees with E-PT")
			}
			// A-PC is sound: never larger than exact.
			apc, err := regionOf(SolveContext(context.Background(), market, q, WithAlgorithm(APCAlgo), WithSamples(150), WithSeed(1)))
			if err != nil {
				t.Fatal(err)
			}
			if apc.Measure(20000) > exact.Measure(20000)+0.01 {
				t.Error("A-PC region exceeds the exact region")
			}
			// 2-d datasets also go through Sweeping.
			if ds.Dim() == 2 {
				sw, err := regionOf(SolveContext(context.Background(), market, q, WithAlgorithm(SweepingAlgo)))
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(exact.Measure(20000)-sw.Measure(20000)) > 0.01 {
					t.Error("Sweeping disagrees with E-PT")
				}
			}
			// Membership spot checks against the regret-ratio definition.
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 50; i++ {
				u := make(Vector, ds.Dim())
				var s float64
				for j := range u {
					u[j] = rng.ExpFloat64()
					s += u[j]
				}
				for j := range u {
					u[j] /= s
				}
				ratio := RegretRatio(market, q.Q, q.K, u)
				if exact.Contains(u) && ratio >= eps+1e-6 {
					t.Errorf("u %v in region but ratio %v ≥ ε", u, ratio)
				}
				if !exact.Contains(u) && ratio < eps-1e-6 {
					// ratio safely below ε means qualified.
					t.Errorf("u %v outside region but ratio %v < ε", u, ratio)
				}
			}
		})
	}
}

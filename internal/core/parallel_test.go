package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestAPCParallelDeterminism checks the core guarantee of A-PC's sample
// classification pool: samples are drawn up front, so the kept set — and
// the constructed region, byte for byte, with its Stats — cannot depend on
// the worker count.
func TestAPCParallelDeterminism(t *testing.T) {
	for d := 2; d <= 6; d++ {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(700 + d)))
			for trial := 0; trial < 4; trial++ {
				pts, q := randomInstance(rng, 60, d)
				ref, refStats, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 80, Seed: 42}}, pts, q)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				refJSON, err := ref.MarshalJSON()
				if err != nil {
					t.Fatalf("marshal serial: %v", err)
				}
				for _, workers := range []int{1, 2, 8} {
					got, gotStats, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 80, Seed: 42, Workers: workers}}, pts, q)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					gotJSON, err := got.MarshalJSON()
					if err != nil {
						t.Fatalf("marshal workers=%d: %v", workers, err)
					}
					if !bytes.Equal(refJSON, gotJSON) {
						t.Fatalf("workers=%d trial=%d: region differs from serial", workers, trial)
					}
					if gotStats != refStats {
						t.Fatalf("workers=%d trial=%d: stats differ: serial %+v parallel %+v",
							workers, trial, refStats, gotStats)
					}
				}
			}
		})
	}
}

package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// TestEPTParallelDeterminism checks the pool's core guarantee: the region
// produced by parallel E-PT is byte-for-byte identical (JSON encoding, which
// fixes cell order, constraint order and vertex order) to the serial
// solver's, for every worker count — and the Stats counters match too.
func TestEPTParallelDeterminism(t *testing.T) {
	for d := 2; d <= 6; d++ {
		d := d
		t.Run(fmt.Sprintf("d=%d", d), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(900 + d)))
			for trial := 0; trial < 4; trial++ {
				pts, q := randomInstance(rng, 60, d)
				ref, refStats, err := solveOn(context.Background(), EPTSolver{}, pts, q)
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				refJSON, err := ref.MarshalJSON()
				if err != nil {
					t.Fatalf("marshal serial: %v", err)
				}
				for _, workers := range []int{1, 2, 8} {
					got, gotStats, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{Workers: workers}}, pts, q)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					gotJSON, err := got.MarshalJSON()
					if err != nil {
						t.Fatalf("marshal workers=%d: %v", workers, err)
					}
					if !bytes.Equal(refJSON, gotJSON) {
						t.Fatalf("workers=%d trial=%d: region differs from serial\nserial: %s\nparallel: %s",
							workers, trial, refJSON, gotJSON)
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

// TestAPCParallelDeterminism checks the same property for A-PC's sample
// classification pool: samples are drawn up front, so the kept set — and
// the constructed region — cannot depend on the worker count.
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

// TestEPTParallelStatsParity checks that the pool's per-worker Stats,
// summed when it drains, report exactly the counters of every other worker
// count on a 4-d instance large enough to spread its splits across
// workers.
func TestEPTParallelStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts, q := randomInstance(rng, 80, 4)
	_, ref, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{Workers: 1}}, pts, q)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Splits == 0 {
		t.Fatalf("instance performs no splits, the check exercises nothing: %+v", ref)
	}
	for _, workers := range []int{2, 4, 8} {
		_, st, err := solveOn(context.Background(), EPTSolver{Opt: EPTOptions{Workers: workers}}, pts, q)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st != ref {
			t.Errorf("workers=%d: stats %+v differ from workers=1 %+v", workers, st, ref)
		}
	}
}

// TestEPTParallelCancellation checks that a canceled context aborts a
// parallel solve with the context's error and no goroutine leak (the -race
// runs of CI double as the leak/teardown check).
func TestEPTParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	pts, q := randomInstance(rng, 200, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := solveOn(ctx, EPTSolver{Opt: EPTOptions{Workers: 4}}, pts, q)
	if err == nil {
		t.Fatal("expected error from canceled context")
	}
}

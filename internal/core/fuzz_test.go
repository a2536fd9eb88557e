package core

// Native fuzz targets, seeded from the degenerate-input corpus shared with
// the differential harness (internal/diffcheck/corpus): coverage-led
// exploration starts from duplicate points, q = (1−ε)p boundaries,
// k-th-rank ties, ε extremes and colinear families instead of having to
// rediscover them. The seed corpus runs as part of the normal test suite;
// `go test -fuzz=FuzzSweepingVsBrute ./internal/core` explores further.

import (
	"context"
	"math/rand"
	"testing"

	"rrq/internal/diffcheck/corpus"
	"rrq/internal/vec"
)

// FuzzSweepingVsBrute cross-checks the linear-time sweep against the
// quadratic reference on arbitrary corpus-decoded 2-d instances.
func FuzzSweepingVsBrute(f *testing.F) {
	for _, seed := range corpus.Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.DecodeDim(data, 2)
		if !ok {
			return
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		want, _, err := solveOn(context.Background(), BruteForceSolver{}, pts, q)
		if err != nil {
			return
		}
		got, _, err := solveOn(context.Background(), SweepingSolver{}, pts, q)
		if err != nil {
			t.Fatalf("Sweeping failed where brute force succeeded: %v", err)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, 2)
			_, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if want.Contains(u) != got.Contains(u) {
				t.Fatalf("disagreement at %v (family=%s k=%d ε=%v)", u, ins.Family, q.K, q.Eps)
			}
		}
	})
}

// FuzzAPCSound checks that A-PC never returns an unqualified preference on
// corpus-decoded instances of any dimension.
func FuzzAPCSound(f *testing.F) {
	for _, seed := range corpus.Seeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ins, ok := corpus.Decode(data)
		if !ok {
			return
		}
		pts, q := ins.Pts, Query{Q: ins.Q, K: ins.K, Eps: ins.Eps}
		d := q.Q.Dim()
		seed := int64(len(data))
		reg, _, err := solveOn(context.Background(), APCSolver{Opt: APCOptions{Samples: 40, Seed: seed}}, pts, q)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			u := vec.RandSimplex(rng, d)
			count, margin := CountBetter(pts, q, u)
			if margin < boundaryMargin {
				continue
			}
			if reg.Contains(u) && count >= q.K {
				t.Fatalf("A-PC returned unqualified %v (family=%s count=%d k=%d)", u, ins.Family, count, q.K)
			}
		}
	})
}

// FuzzRegionJSON feeds arbitrary bytes to the region decoder, seeded with
// the encodings of E-PT, Sweeping and A-PC regions. Decoding must never
// panic, and a region it accepts must re-encode to bytes it accepts again.
func FuzzRegionJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for d := 2; d <= 4; d++ {
		pts, q := randomInstance(rng, 12, d)
		q.Q = vec.New(d)
		for j := range q.Q {
			q.Q[j] = 0.8
		}
		q.K, q.Eps = 2, 0.1
		regs := []*Region{}
		reg, _, err := solveOn(context.Background(), EPTSolver{}, pts, q)
		regs = append(regs, reg)
		if err == nil && d == 2 {
			reg, _, err = solveOn(context.Background(), SweepingSolver{}, pts, q)
			regs = append(regs, reg)
		}
		if err == nil {
			reg, _, err = solveOn(context.Background(), APCSolver{Opt: APCOptions{Seed: 1}}, pts, q)
			regs = append(regs, reg)
		}
		if err != nil {
			f.Fatal(err)
		}
		for _, reg := range regs {
			if reg.Empty() {
				f.Fatalf("d=%d: precondition: an empty seed region", d)
			}
			b, err := reg.AppendJSON(nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Region
		if r.UnmarshalJSON(data) != nil {
			return
		}
		b, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatalf("re-encoding the decoded region: %v", err)
		}
		var back Region
		if err := back.UnmarshalJSON(b); err != nil {
			t.Fatalf("re-encoding %s does not decode: %v", b, err)
		}
	})
}

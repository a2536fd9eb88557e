package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
)

// TestEPTAntiProbe profiles the anti-correlated hot case with random
// queries, as the harness issues them.
func TestEPTAntiProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	pts := dataset.Generate(dataset.Anticorrelated, 10000, 4, 20240601)
	band := skyband.Select(pts, skyband.KSkyband(pts, 10))
	t.Logf("band size %d", len(band))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1; i++ {
		q := Query{Q: dataset.RandQuery(rng, pts), K: 10, Eps: 0.1}
		start := time.Now()
		reg, st, err := solveOn(context.Background(), EPTSolver{}, band, q)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("EPT %v stats %+v pieces %d", time.Since(start), st, reg.NumPieces())
	}
}

package core

import (
	"context"
	"testing"

	"rrq/internal/dataset"
	"rrq/internal/skyband"
)

// TestEPTPerfProbe is a manual probe for profiling; run with
// go test -run EPTPerfProbe -cpuprofile cpu.out ./internal/core/
func TestEPTPerfProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("perf probe")
	}
	pts := dataset.Generate(dataset.Independent, 50000, 4, 11)
	band := skyband.Select(pts, skyband.KSkyband(pts, 5))
	q := Query{Q: pts[100].Clone(), K: 5, Eps: 0.1}
	reg, st, err := solveOn(context.Background(), EPTSolver{}, band, q)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stats: %+v, pieces=%d", st, reg.NumPieces())
	maxV := 0
	for _, c := range reg.Cells() {
		if c.NumVertices() > maxV {
			maxV = c.NumVertices()
		}
	}
	t.Logf("max vertices per output cell: %d", maxV)
}

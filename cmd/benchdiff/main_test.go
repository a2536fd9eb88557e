package main

import (
	"reflect"
	"testing"
)

func TestStatsDiff(t *testing.T) {
	base := map[string]int64{"Splits": 178, "NodesCreated": 361, "Pieces": 61}
	if got := statsDiff(base, map[string]int64{"Pieces": 61, "Splits": 178, "NodesCreated": 361}); got != nil {
		t.Fatalf("equal stats: %q", got)
	}
	got := statsDiff(base, map[string]int64{"Splits": 483, "Pieces": 61})
	want := []string{
		"NodesCreated missing from current report (baseline 361)",
		"Splits 483 differs from baseline 178",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("statsDiff = %q, want %q", got, want)
	}
}

func TestIndexDiff(t *testing.T) {
	base := []indexRow{
		{Name: "index-2d", PlaneHitsPerQ: 1.0 / 3, PlaneMissesPerQ: 2.0 / 3},
		{Name: "index-3d", PlaneHitsPerQ: 1.0 / 3, PlaneMissesPerQ: 2.0 / 3},
	}
	if got := indexDiff(base, []indexRow{base[1], base[0]}); got != nil {
		t.Fatalf("equal rows: %q", got)
	}
	got := indexDiff(base, []indexRow{{Name: "index-2d", PlaneHitsPerQ: 2.0 / 3, PlaneMissesPerQ: 1.0 / 3}})
	want := []string{
		"index-2d           plane hits/misses per query 0.6666666666666666/0.3333333333333333 differ from baseline 0.3333333333333333/0.6666666666666666",
		"index-3d           missing from current report",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("indexDiff = %q, want %q", got, want)
	}
}

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

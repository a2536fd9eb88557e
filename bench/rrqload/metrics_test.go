package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks a metric list against the benchmark contract: at
// most limit entries, well-formed unique names and units, and a direction.
func validateDefs(defs []metricDef, limit int) error {
	if len(defs) == 0 || len(defs) > limit {
		return fmt.Errorf("%d metrics, want 1 to %d", len(defs), limit)
	}
	seen := make(map[string]bool)
	for _, d := range defs {
		switch {
		case !nameRE.MatchString(d.name):
			return fmt.Errorf("metric name %q: want [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters", d.name)
		case seen[d.name]:
			return fmt.Errorf("metric name %q used twice", d.name)
		case !unitRE.MatchString(d.unit):
			return fmt.Errorf("metric %s: unit %q: want [A-Za-z0-9_/%%.-], at most 16 characters", d.name, d.unit)
		case d.better != "higher" && d.better != "lower":
			return fmt.Errorf("metric %s: better %q, want higher or lower", d.name, d.better)
		}
		seen[d.name] = true
	}
	return nil
}

func TestValidateDefs(t *testing.T) {
	if err := validateDefs(endToEnd, 16); err != nil {
		t.Fatalf("end-to-end metrics: %v", err)
	}
	if err := validateDefs(perLayer, 128); err != nil {
		t.Fatalf("per-layer metrics: %v", err)
	}
	ok := metricDef{"a.b_c-1", "us", "lower"}
	for _, tc := range []struct {
		name string
		defs []metricDef
		want string
	}{
		{"empty list", nil, "want 1 to"},
		{"too many", make([]metricDef, 17), "want 1 to 16"},
		{"space in name", []metricDef{{"read p50", "ms", "lower"}}, "metric name"},
		{"slash in name", []metricDef{{"read/p50", "ms", "lower"}}, "metric name"},
		{"leading dot", []metricDef{{".p50", "ms", "lower"}}, "metric name"},
		{"name over 64", []metricDef{{strings.Repeat("a", 65), "ms", "lower"}}, "metric name"},
		{"duplicate", []metricDef{ok, ok}, "used twice"},
		{"bad unit", []metricDef{{"x", "µs", "lower"}}, "unit"},
		{"bad direction", []metricDef{{"x", "ms", "smaller"}}, "better"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := validateDefs(tc.defs, 16)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("validateDefs = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	if err := validateDefs([]metricDef{ok, {strings.Repeat("b", 64), "1/s", "higher"}}, 16); err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this program reports, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, rrqload %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, rrqload %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, rrqload %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, rrqload %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.10) {
				t.Errorf("%s %s: bound %v outside (0, 0.10]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	// Set-up runs only a few times per run, so setup_s gets the largest bound.
	var setup float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != nil {
			setup = *m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound != nil && *m.Bound > setup {
			t.Errorf("bound of %s (%v) exceeds setup_s's (%v)", m.Name, *m.Bound, setup)
		}
	}
}

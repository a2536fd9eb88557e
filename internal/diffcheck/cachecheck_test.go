package diffcheck

import "testing"

// TestCacheDifferentialSweep is the cache acceptance gate: across the full
// 208-problem corpus, every exact cache hit must be byte-identical to a
// from-scratch solve, and every inner bound taken from a tighter cached
// neighbor (the anytime tier's warm-start seed) must lie inside the true
// region under the monotonicity invariant, with stale epochs never served.
func TestCacheDifferentialSweep(t *testing.T) {
	rep := RunCache(Config{Seed: 20240805})

	if rep.Problems < 200 {
		t.Fatalf("ran %d problems, want ≥ 200", rep.Problems)
	}
	if rep.ExactChecks == 0 {
		t.Fatal("no exact-hit byte comparisons ran")
	}
	// A solvable problem with ε > 0 runs two inner-bound scenarios (tighter
	// neighbor, ε = 0 seed), one with ε = 0 and k > 1 runs one, and only
	// ε = 0, k = 1 runs none; the corpus holds far more of the first kind
	// than of the last, so the count stays above one per solvable problem.
	// The sweep must not silently degrade into a handful of checks.
	if min := rep.Problems - rep.SolveSkipped; rep.BoundChecks < min {
		t.Errorf("ran %d bound scenarios over %d solvable problems, want ≥ %d",
			rep.BoundChecks, min, min)
	}
	if rep.SampleChecks < 1000 {
		t.Errorf("only %d margin-guarded membership assertions ran, want ≥ 1000", rep.SampleChecks)
	}
	if rep.SolveSkipped > rep.Problems/2 {
		t.Errorf("reference solve failed on %d of %d problems — the sweep lost most of its coverage",
			rep.SolveSkipped, rep.Problems)
	}
	for i, m := range rep.Mismatches {
		if i >= 5 {
			t.Errorf("... and %d more mismatches", len(rep.Mismatches)-5)
			break
		}
		t.Errorf("mismatch:\n%s", m.JSON())
	}
}

// TestRunCacheDeterminism: identical configs must produce identical reports.
func TestRunCacheDeterminism(t *testing.T) {
	cfg := Config{Seed: 11, Problems: 24}
	a, b := RunCache(cfg), RunCache(cfg)
	if a.Problems != b.Problems || a.ExactChecks != b.ExactChecks ||
		a.BoundChecks != b.BoundChecks || a.SampleChecks != b.SampleChecks ||
		len(a.Mismatches) != len(b.Mismatches) {
		t.Fatalf("reports differ across identical runs: %+v vs %+v", a, b)
	}
}

package expt

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rrq/internal/baseline"
	"rrq/internal/core"
)

// tiny returns a scale small enough for unit tests.
func tiny() Scale {
	return Scale{Seed: 3, Repeats: 1, PBABudget: 4_000, SizeOverride: 400, CellBudget: 2 * time.Second}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig7", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"ext-ablation", "ext-dynamic", "ext-study",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(IDs()), len(want))
	}
}

func TestTablePrint(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", ParamCol: "k",
		Rows: []Row{
			{Param: "1", Cells: []Cell{{Algo: "E-PT", Seconds: 0.001}, {Algo: "PBA+", Skipped: true}}},
			{Param: "2", Cells: []Cell{{Algo: "E-PT", Seconds: 0.002}}, Extra: map[string]float64{"acc": 0.9}},
		},
	}
	var buf bytes.Buffer
	tbl.Print(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "E-PT", ">budget", "0.001", "acc", "0.9000"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	empty := &Table{ID: "e", Title: "none", ParamCol: "k"}
	buf.Reset()
	empty.Print(&buf)
	if !strings.Contains(buf.String(), "(no rows)") {
		t.Error("empty table should print a placeholder")
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s.Repeats != 5 || s.Seed == 0 || s.PBABudget == 0 {
		t.Fatalf("quick defaults wrong: %+v", s)
	}
	f := Scale{Full: true}.withDefaults()
	if f.Repeats != 30 || f.size() != 400_000 {
		t.Fatalf("full defaults wrong: %+v", f)
	}
}

// Smoke-run one figure per experiment family end to end at miniature
// scale (cmd/rrqbench covers the full registry).
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	sc := tiny()
	for _, id := range []string{
		"fig7", "fig8a", "fig8b", "fig9a", "fig11", "fig13", "fig16",
		"ext-ablation", "ext-dynamic", "ext-study",
	} {
		tables := Registry[id](sc)
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		for _, tbl := range tables {
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s table %s has no rows", id, tbl.ID)
			}
			if err := tbl.Err(); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tbl.Print(&buf)
			if buf.Len() == 0 {
				t.Fatalf("%s printed nothing", tbl.ID)
			}
		}
	}
}

// The headline claims of the evaluation must hold at quick scale: E-PT and
// A-PC beat LP-CTA, and the correlated dataset is the cheapest.
func TestEvaluationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is slow")
	}
	sc := tiny()
	tables := Fig13(sc)
	rows := tables[0].Rows
	times := map[string]map[string]float64{} // type -> algo -> secs
	for _, r := range rows {
		times[r.Param] = map[string]float64{}
		for _, c := range r.Cells {
			if !c.Skipped {
				times[r.Param][c.Algo] = c.Seconds
			}
		}
	}
	for typ, m := range times {
		ept, okE := m["E-PT"]
		lp, okL := m["LP-CTA"]
		// Sub-millisecond cells are timer noise on trivial instances
		// (correlated data at miniature scale); only compare when the
		// baseline does measurable work.
		if okE && okL && lp > 1e-3 && ept > lp {
			t.Errorf("%s: E-PT (%v) slower than LP-CTA (%v)", typ, ept, lp)
		}
	}
	if ca, ok := times["Cor"]["E-PT"]; ok {
		if aa, ok2 := times["Anti"]["E-PT"]; ok2 && ca > aa {
			t.Errorf("E-PT on Cor (%v) slower than Anti (%v)", ca, aa)
		}
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "demo", ParamCol: "k",
		Rows: []Row{
			{Param: "1", Cells: []Cell{{Algo: "E-PT", Seconds: 0.001}, {Algo: "PBA+", Skipped: true}}},
			{Param: "2", Cells: []Cell{{Algo: "E-PT", Seconds: 0.002}}, Extra: map[string]float64{"acc": 0.9}},
		},
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "k,E-PT,PBA+,acc" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0.001,,") {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestSummarize(t *testing.T) {
	tbl := &Table{
		ID: "x", ParamCol: "k",
		Rows: []Row{
			{Param: "1", Cells: []Cell{{Algo: "E-PT", Seconds: 0.1}, {Algo: "LP-CTA", Seconds: 0.4}, {Algo: "PBA+", Skipped: true}}},
			{Param: "2", Cells: []Cell{{Algo: "E-PT", Seconds: 0.2}, {Algo: "LP-CTA", Seconds: 1.6}, {Algo: "PBA+", Skipped: true}}},
		},
	}
	sps := Summarize(tbl, "E-PT")
	if len(sps) != 2 {
		t.Fatalf("%d speedups, want 2", len(sps))
	}
	for _, sp := range sps {
		switch sp.Versus {
		case "LP-CTA":
			// geo-mean of 4 and 8 = sqrt(32) ≈ 5.657.
			if sp.Rows != 2 || sp.Factor < 5.6 || sp.Factor > 5.7 {
				t.Fatalf("LP-CTA speedup = %+v", sp)
			}
		case "PBA+":
			if sp.Rows != 0 || sp.Skipped != 2 {
				t.Fatalf("PBA+ speedup = %+v", sp)
			}
		}
	}
	var buf bytes.Buffer
	PrintSummary(&buf, tbl, "E-PT")
	if !strings.Contains(buf.String(), "faster than LP-CTA") {
		t.Fatalf("summary output: %s", buf.String())
	}
	if Summarize(tbl, "nope") != nil {
		t.Fatal("unknown reference should yield nil")
	}
}

// Only a blown budget may print as ">budget": any other solver error fails
// the table, so a figure run whose every solve errs cannot pass for one
// whose solvers were merely slow.
func TestCellOrSkipSkipsOnlyBudgets(t *testing.T) {
	for _, err := range []error{
		errCellBudget,
		core.ErrDeadline,
		fmt.Errorf("solve: %w", core.ErrDeadline),
		&core.BudgetError{Limit: 10, Spent: 11},
		baseline.ErrPBABudget,
	} {
		if c := cellOrSkip("E-PT", 0, err); !c.Skipped || c.Err != nil {
			t.Errorf("%v: cell %+v, want skipped", err, c)
		}
	}

	qerr := &core.QueryError{Field: "k", Msg: "must be ≥ 1"}
	c := cellOrSkip("LP-CTA", 0, qerr)
	if c.Skipped || c.Err == nil {
		t.Fatalf("query error became cell %+v, want a failed cell", c)
	}
	tbl := &Table{ID: "fig9a", ParamCol: "k", Rows: []Row{
		{Param: "1", Cells: []Cell{{Algo: "E-PT", Seconds: 0.001}, c}},
	}}
	var buf bytes.Buffer
	tbl.Print(&buf)
	if strings.Contains(buf.String(), ">budget") || !strings.Contains(buf.String(), "error") {
		t.Errorf("failed cell printed as:\n%s", buf.String())
	}
	err := tbl.Err()
	var got *core.QueryError
	if !errors.As(err, &got) || !strings.Contains(err.Error(), "fig9a") || !strings.Contains(err.Error(), "LP-CTA") {
		t.Fatalf("Table.Err() = %v, want the query error naming fig9a and LP-CTA", err)
	}
	if (&Table{ID: "fig9a", Rows: []Row{{Param: "1", Cells: []Cell{cellOrSkip("PBA+", 0, baseline.ErrPBABudget)}}}}).Err() != nil {
		t.Fatal("a skipped cell made the table fail")
	}
}

// Package expt is the experiment harness: it regenerates every figure of
// the paper's evaluation (§6) as a printed table of the same series the
// paper plots. Each figure has a registered runner; cmd/rrqbench drives
// them and EXPERIMENTS.md records paper-vs-measured shapes.
package expt

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"rrq/internal/baseline"
	"rrq/internal/core"
	"rrq/internal/dataset"
	"rrq/internal/skyband"
	"rrq/internal/vec"
)

// Scale selects experiment sizing. Quick keeps every figure runnable in
// seconds; Full uses the paper's parameters (minutes to hours, and PBA+
// preprocessing hits its budget exactly where the paper reports >10⁴ s).
type Scale struct {
	Full       bool
	Seed       int64
	Repeats    int           // query points averaged per cell; default 5 quick, 30 full
	PBABudget  int           // node budget for PBA+ preprocessing
	CellBudget time.Duration // wall-clock cap per (figure row, algorithm) cell
	// SizeOverride, when > 0, replaces the default synthetic dataset size
	// and real-dataset cap — used by the smoke tests to run every figure
	// in miniature.
	SizeOverride int
}

func (s Scale) withDefaults() Scale {
	if s.Seed == 0 {
		s.Seed = 20240601
	}
	if s.Repeats == 0 {
		if s.Full {
			s.Repeats = 30
		} else {
			s.Repeats = 5
		}
	}
	if s.PBABudget == 0 {
		if s.Full {
			s.PBABudget = 2_000_000
		} else {
			s.PBABudget = 40_000
		}
	}
	if s.CellBudget == 0 {
		if s.Full {
			// The paper omits algorithms past 10⁴ seconds.
			s.CellBudget = 10_000 * time.Second
		} else {
			s.CellBudget = 10 * time.Second
		}
	}
	return s
}

// size returns the synthetic dataset cardinality for the scale.
func (s Scale) size() int {
	if s.SizeOverride > 0 {
		return s.SizeOverride
	}
	if s.Full {
		return 400_000
	}
	return 10_000
}

// Cell is one measurement: an algorithm's mean time on one parameter value.
// A cell whose run blew a budget is Skipped; one whose run failed for any
// other reason carries the error in Err, which makes the table invalid (see
// Table.Err).
type Cell struct {
	Algo    string
	Seconds float64
	Skipped bool
	Note    string
	Err     error
}

// Row is one x-axis value of a figure.
type Row struct {
	Param string
	Cells []Cell
	Extra map[string]float64 // non-timing series (accuracy, percentages…)
}

// Table is one printed figure.
type Table struct {
	ID       string
	Title    string
	ParamCol string
	Rows     []Row
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if len(t.Rows) == 0 {
		fmt.Fprintln(w, "(no rows)")
		return
	}
	// Column header order: algorithms by first appearance, then extras.
	var algos []string
	seen := map[string]bool{}
	extras := map[string]bool{}
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if !seen[c.Algo] {
				seen[c.Algo] = true
				algos = append(algos, c.Algo)
			}
		}
		for k := range r.Extra {
			extras[k] = true
		}
	}
	var extraCols []string
	for k := range extras {
		extraCols = append(extraCols, k)
	}
	sort.Strings(extraCols)

	head := []string{t.ParamCol}
	for _, a := range algos {
		head = append(head, a+" (s)")
	}
	head = append(head, extraCols...)
	rows := [][]string{head}
	for _, r := range t.Rows {
		line := []string{r.Param}
		byAlgo := map[string]Cell{}
		for _, c := range r.Cells {
			byAlgo[c.Algo] = c
		}
		for _, a := range algos {
			c, ok := byAlgo[a]
			switch {
			case !ok:
				line = append(line, "-")
			case c.Err != nil:
				line = append(line, "error")
			case c.Skipped:
				line = append(line, ">budget")
			default:
				line = append(line, fmt.Sprintf("%.6f", c.Seconds))
			}
		}
		for _, e := range extraCols {
			if v, ok := r.Extra[e]; ok {
				line = append(line, fmt.Sprintf("%.4f", v))
			} else {
				line = append(line, "-")
			}
		}
		rows = append(rows, line)
	}
	widths := make([]int, len(head))
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, r := range rows {
		var b strings.Builder
		for i, cell := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, b.String())
		if ri == 0 {
			fmt.Fprintln(w, strings.Repeat("-", len(b.String())))
		}
	}
}

// Err returns the first failed cell's error, naming the table and the
// algorithm, or nil when every cell was measured or skipped on a budget.
func (t *Table) Err() error {
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if c.Err != nil {
				return fmt.Errorf("%s (%s=%s): %s: %w", t.ID, t.ParamCol, r.Param, c.Algo, c.Err)
			}
		}
	}
	return nil
}

// instance is a prepared workload: k-skyband-pruned points, the one
// Prepared every solver runs on, plus query points, following the paper's
// protocol (random queries, preprocessing excluded from timings).
type instance struct {
	pts     []vec.Vec
	prep    *core.Prepared
	queries []vec.Vec
	k       int
	eps     float64
}

func prepare(pts []vec.Vec, k int, eps float64, repeats int, rng *rand.Rand) instance {
	band := skyband.Select(pts, skyband.KSkyband(pts, k))
	prep, err := core.Prepare(band, pts[0].Dim(), false)
	if err != nil {
		panic(err)
	}
	in := instance{pts: band, prep: prep, k: k, eps: eps}
	for i := 0; i < repeats; i++ {
		in.queries = append(in.queries, dataset.RandQuery(rng, pts))
	}
	return in
}

// errCellBudget marks a cell that ran past the scale's wall-clock budget —
// the harness analogue of the paper omitting results beyond 10⁴ seconds.
var errCellBudget = fmt.Errorf("exceeded the per-cell time budget")

// timeIt returns the mean wall time of f across the instance's queries,
// aborting with errCellBudget once the budget elapses.
func timeIt(in instance, budget time.Duration, f func(q core.Query) error) (float64, error) {
	start := time.Now()
	for _, qp := range in.queries {
		q := core.Query{Q: qp, K: in.k, Eps: in.eps}
		if err := f(q); err != nil {
			return 0, err
		}
		if budget > 0 && time.Since(start) > budget {
			return 0, errCellBudget
		}
	}
	return time.Since(start).Seconds() / float64(len(in.queries)), nil
}

// algoSet names the solvers compared in the timing figures.
type algoSet struct {
	sweeping bool
	ept      bool
	apc      bool
	lpcta    bool
	pba      bool
}

// solvers returns the set's solvers in table order; PBA+ is not a
// core.Solver (it answers from its own index) and runs separately.
func (a algoSet) solvers() []core.Solver {
	var out []core.Solver
	if a.sweeping {
		out = append(out, core.SweepingSolver{})
	}
	if a.ept {
		out = append(out, core.EPTSolver{})
	}
	if a.apc {
		out = append(out, core.APCSolver{Opt: core.APCOptions{Seed: 1}})
	}
	if a.lpcta {
		out = append(out, baseline.LPCTASolver{})
	}
	return out
}

// cellCtx returns a context carrying the scale's per-cell wall-clock budget.
func cellCtx(sc Scale) (context.Context, context.CancelFunc) {
	if sc.CellBudget <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), sc.CellBudget)
}

// timeSolver times s on the instance's queries under the scale's per-cell
// budget.
func timeSolver(in instance, s core.Solver, sc Scale) (float64, error) {
	ctx, cancel := cellCtx(sc)
	defer cancel()
	return timeIt(in, sc.CellBudget, func(q core.Query) error {
		_, _, err := s.Solve(ctx, in.prep, q)
		return err
	})
}

// run measures every requested solver on the instance.
func run(in instance, algos algoSet, sc Scale) []Cell {
	var cells []Cell
	for _, s := range algos.solvers() {
		secs, err := timeSolver(in, s, sc)
		cells = append(cells, cellOrSkip(s.Name(), secs, err))
	}
	if algos.pba {
		cells = append(cells, runPBA(in, sc))
	}
	return cells
}

// runPBA builds the PBA+ index (preprocessing, excluded from the reported
// query time, exactly as §6.1 does) and times queries. A blown budget is
// reported as skipped — the analogue of the paper's ">10⁴ s" omissions.
func runPBA(in instance, sc Scale) Cell {
	ctx, cancel := cellCtx(sc)
	defer cancel()
	ix, err := baseline.BuildPBAContext(ctx, in.pts, in.k, sc.PBABudget)
	if err != nil {
		return cellOrSkip("PBA+", 0, err)
	}
	secs, err := timeIt(in, sc.CellBudget, func(q core.Query) error {
		_, e := ix.QueryContext(ctx, q)
		return e
	})
	return cellOrSkip("PBA+", secs, err)
}

// cellOrSkip turns one timed run into a cell: measured, skipped when the
// run blew a budget (the analogue of the paper's ">10⁴ s" omissions), or
// failed with any other error.
func cellOrSkip(name string, secs float64, err error) Cell {
	var budget *core.BudgetError
	switch {
	case err == nil:
		return Cell{Algo: name, Seconds: secs}
	case errors.Is(err, errCellBudget), errors.Is(err, core.ErrDeadline),
		errors.As(err, &budget), errors.Is(err, baseline.ErrPBABudget):
		return Cell{Algo: name, Skipped: true, Note: err.Error()}
	}
	return Cell{Algo: name, Err: err}
}

// Registry maps experiment ids to their runners.
var Registry = map[string]func(Scale) []*Table{
	"fig7":   Fig7,
	"fig8a":  Fig8a,
	"fig8b":  Fig8b,
	"fig9a":  Fig9a,
	"fig9b":  Fig9b,
	"fig10a": Fig10a,
	"fig10b": Fig10b,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig13":  Fig13,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,
	"fig17":  Fig17,
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Package exp regenerates the paper-reproduction tables E1-E13: one
// generator per quantitative claim of the paper (the bounds proved in
// §§4, 5.1, 6.3-6.4, 8.1-8.2, the Figure 1 chain, the RSM properties of
// §7) plus the design ablations called out in DESIGN.md. The same
// generators back the cmd/bglabench CLI and the root bench_test.go
// benchmarks.
package exp

import (
	"fmt"
	"strings"
)

// Table is one rendered experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Pass reports whether every per-row expectation held.
	Pass bool
}

// AddRow appends a row (values are formatted with %v).
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	status := "PASS"
	if !t.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", t.ID, t.Title, status)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// All runs every experiment (E1-E13) in order. The quick flag trims
// parameter sweeps for fast regression runs (tests).
func All(quick bool) []*Table {
	return []*Table{
		FigureChain(),
		ResilienceBound(),
		WTSDelays(quick),
		WTSMessages(quick),
		WTSRefinements(quick),
		GWTSMessages(quick),
		SbSDelays(quick),
		SbSVsWTSMessages(quick),
		GSbSVsGWTSMessages(quick),
		RSMWorkload(quick),
		BaselineComparison(quick),
		Ablations(),
		WaitFree(quick),
	}
}

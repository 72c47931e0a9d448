// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 8) on the synthetic DBpedia-
// like and WatDiv-like corpora. Each experiment returns a Table whose rows
// mirror what the paper reports; cmd/experiments prints them and
// EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string // e.g. "fig9", "table1"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// addRow appends a formatted row.
func (t *Table) addRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

func ms(x float64) string { return fmt.Sprintf("%.2fms", x) }

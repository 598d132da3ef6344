// Package report renders result tables: every experiment, mantisd and
// perfbench build []Table, and Text and Markdown render them.
package report

import (
	"fmt"
	"reflect"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// A Table is one view of an experiment's result: a title, one header per
// column (carrying the unit where the cells do not), rows of formatted
// cells, and notes — sentences derived from the same result. Every result
// type builds its tables once, in its Tables method; Text renders them
// for the terminal and Markdown for EXPERIMENTS.md.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Text renders tables as aligned plain text: a column whose cells all
// start with a digit right-aligned, any other left-aligned, notes below,
// a blank line between tables.
func Text(tables []Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(t.Title + "\n")
		lines := append([][]string{t.Columns}, t.Rows...)
		width := make([]int, len(t.Columns))
		left := make([]bool, len(t.Columns))
		for l, line := range lines {
			for c, cell := range line {
				width[c] = max(width[c], utf8.RuneCountInString(cell))
				if l > 0 && (cell == "" || cell[0] < '0' || cell[0] > '9') {
					left[c] = true
				}
			}
		}
		for _, line := range lines {
			var out strings.Builder
			for c, cell := range line {
				if c > 0 {
					out.WriteString("  ")
				}
				pad := strings.Repeat(" ", width[c]-utf8.RuneCountInString(cell))
				if left[c] {
					out.WriteString(cell + pad)
				} else {
					out.WriteString(pad + cell)
				}
			}
			b.WriteString(strings.TrimRight(out.String(), " ") + "\n")
		}
		for _, n := range t.Notes {
			b.WriteString(n + "\n")
		}
	}
	return b.String()
}

// Markdown renders tables as GitHub-flavoured markdown: a bold title, a
// pipe table, and one paragraph per note.
func Markdown(tables []Table) string {
	var b strings.Builder
	for i, t := range tables {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
		b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
		for _, r := range t.Rows {
			b.WriteString("| " + strings.Join(r, " | ") + " |\n")
		}
		for _, n := range t.Notes {
			b.WriteString("\n" + n + "\n")
		}
	}
	return b.String()
}

// Row formats one table row; a time.Duration prints as its String.
func Row(cells ...any) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = fmt.Sprint(c)
	}
	return out
}

// DurColumns heads the cells DurRow writes for a latency distribution.
var DurColumns = []string{"n", "mean", "median", "p99", "min", "max"}

// DurRow is one latency distribution as a table row under DurColumns.
func DurRow(label string, s stats.DurationStats) []string {
	return Row(label, s.Count, s.Mean, s.Median, s.P99, s.Min, s.Max)
}

// Stats puts same-typed stats structs side by side: a column per
// struct, headed by its name, and a row per exported scalar field, so a
// counter added to a struct shows up here without an edit. The title
// names the struct type.
func Stats[T any](title string, names []string, structs []T) Table {
	typ := reflect.TypeOf(structs).Elem()
	t := Table{Title: fmt.Sprintf("%s (%v)", title, typ), Columns: append([]string{"counter"}, names...)}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); !f.IsExported() || k > reflect.Complex128 && k != reflect.String {
			continue
		}
		row := []string{f.Name}
		for _, s := range structs {
			row = append(row, fmt.Sprint(reflect.ValueOf(s).Field(i)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

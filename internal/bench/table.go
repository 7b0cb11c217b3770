// Package bench is the experiment harness: it prices paper-scale runs
// with the Section 7.4 time model at the paper's node compute rates and
// the interconnect models, runs real transforms for the accuracy and
// communication-count columns (on the in-process message-passing
// runtime where they are distributed), and renders every table and
// figure of the paper's evaluation (Section 7) as markdown tables.
package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as a GitHub-markdown table whose columns are
// padded to a common width, so it reads aligned in a terminal too: a
// bold title, the table, the notes as a list, and a closing blank line.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "**%s**\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = max(utf8.RuneCountInString(h), 3) // a delimiter cell needs three dashes
	}
	for _, row := range t.Rows {
		for i, c := range row {
			widths[i] = max(widths[i], utf8.RuneCountInString(c))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "| %-*s ", widths[i], c)
		}
		fmt.Fprintln(w, "|")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "- %s\n", n)
	}
	if len(t.Notes) > 0 {
		fmt.Fprintln(w)
	}
}

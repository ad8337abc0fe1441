// Package report renders experiment results as aligned text tables or JSON,
// so cmd/vodsim stays a thin flag-parsing shell and downstream tooling can
// consume machine-readable output for plotting.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// Table is one renderable result set.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// AddRow appends one row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// validate checks the table's shape.
func (t *Table) validate() error {
	if t.Title == "" {
		return fmt.Errorf("report: table without a title")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("report: table %q without columns", t.Title)
	}
	for i, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("report: table %q row %d has %d cells for %d columns",
				t.Title, i, len(row), len(t.Columns))
		}
	}
	return nil
}

// RenderText writes the tables as titled, column-aligned text.
func RenderText(w io.Writer, tables ...Table) error {
	for i, t := range tables {
		if err := t.validate(); err != nil {
			return err
		}
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w, t.Title); err != nil {
			return err
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		for _, col := range t.Columns {
			fmt.Fprintf(tw, "%s\t", col)
		}
		fmt.Fprintln(tw)
		for _, row := range t.Rows {
			for _, cell := range row {
				fmt.Fprintf(tw, "%s\t", cell)
			}
			fmt.Fprintln(tw)
		}
		if err := tw.Flush(); err != nil {
			return fmt.Errorf("report: render %q: %w", t.Title, err)
		}
	}
	return nil
}

// RenderJSON writes the tables as a JSON array.
func RenderJSON(w io.Writer, tables ...Table) error {
	for _, t := range tables {
		if err := t.validate(); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		return fmt.Errorf("report: encode: %w", err)
	}
	return nil
}

// Cell formatting helpers shared by the table builders.

// F formats a float with the given decimal places.
func F(v float64, places int) string {
	return strconv.FormatFloat(v, 'f', places, 64)
}

// I formats an integer.
func I(v int) string { return strconv.Itoa(v) }

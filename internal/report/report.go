// Package report renders simulation results for humans: fixed-width ASCII
// tables, CSV exports, and the text Gantt timelines that substitute for the
// Paraver screenshots of the paper (Fig. 3: idle threads in Specfem3D;
// Fig. 4: MPI barrier waiting in LULESH).
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a simple fixed-width table builder.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	for i, h := range t.Headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for i := range t.Headers {
		b.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (no quoting needed for our numeric
// content; commas in cells are replaced by semicolons defensively).
func (t *Table) WriteCSV(w io.Writer) error {
	clean := func(s string) string { return strings.ReplaceAll(s, ",", ";") }
	var b strings.Builder
	for i, h := range t.Headers {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(clean(h))
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(clean(c))
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders the table as a JSON object ({title, headers, rows}).
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Figure bundles the table data behind one evaluation figure — the JSON
// payload of the `musa serve` /figures/{n} endpoint.
type Figure struct {
	N      int      `json:"figure"`
	Title  string   `json:"title"`
	Tables []*Table `json:"tables"`
	// Text carries a rendered ASCII artifact when the figure is a
	// timeline rather than a table (Fig. 4's rank Gantt chart).
	Text string `json:"text,omitempty"`
}

// WriteJSON renders the figure as a JSON object.
func (f *Figure) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Interval is one busy interval on a timeline lane.
type Interval struct {
	StartNs, EndNs float64
	// Kind colors the interval: 0 = compute/task, 1 = wait/MPI.
	Kind int
}

// Timeline renders lanes of intervals as a text Gantt chart: '#' for busy,
// '.' for idle, 'w' for waiting. One lane per thread (Fig. 3) or rank
// (Fig. 4); X axis is time.
type Timeline struct {
	Lanes    [][]Interval
	SpanNs   float64
	Width    int // characters; default 100
	LaneName func(i int) string
}

// Render writes the chart.
func (tl *Timeline) Render(w io.Writer) error {
	width := tl.Width
	if width <= 0 {
		width = 100
	}
	if tl.SpanNs <= 0 {
		for _, lane := range tl.Lanes {
			for _, iv := range lane {
				if iv.EndNs > tl.SpanNs {
					tl.SpanNs = iv.EndNs
				}
			}
		}
	}
	if tl.SpanNs <= 0 {
		tl.SpanNs = 1
	}
	var b strings.Builder
	for i, lane := range tl.Lanes {
		name := fmt.Sprintf("%4d", i)
		if tl.LaneName != nil {
			name = fmt.Sprintf("%6s", tl.LaneName(i))
		}
		row := make([]byte, width)
		for j := range row {
			row[j] = '.'
		}
		for _, iv := range lane {
			s := int(iv.StartNs / tl.SpanNs * float64(width))
			e := int(iv.EndNs / tl.SpanNs * float64(width))
			if e >= width {
				e = width - 1
			}
			ch := byte('#')
			if iv.Kind == 1 {
				ch = 'w'
			}
			for j := s; j <= e && j >= 0; j++ {
				if row[j] == '.' || ch == '#' {
					row[j] = ch
				}
			}
		}
		fmt.Fprintf(&b, "%s |%s|\n", name, row)
	}
	// Utilization summary: fraction of cells busy.
	busy, total := 0, 0
	lines := strings.Split(b.String(), "\n")
	for _, l := range lines {
		for _, c := range l {
			switch c {
			case '#':
				busy++
				total++
			case '.', 'w':
				total++
			}
		}
	}
	if total > 0 {
		fmt.Fprintf(&b, "utilization: %.0f%% of lane-time busy\n", 100*float64(busy)/float64(total))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Package experiments reproduces the paper's evaluation (Section VI):
// every figure has a harness that generates the same series the paper
// plots, renderable as aligned text tables or CSV. The harnesses are
// shared by cmd/experiments (interactive regeneration) and the repository
// root benches (go test -bench).
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator, not the authors' testbed — but the qualitative
// shapes (orderings, growth directions, crossovers) are asserted in
// EXPERIMENTS.md and in the integration tests of this package.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Series is one named line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced plot: metadata plus one or more series over a
// shared x-axis semantic.
type Figure struct {
	// ID is the paper's figure number, e.g. "fig4".
	ID string
	// Title is the caption.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the plotted lines.
	Series []Series
	// Notes carries derived observations (fit coefficients, ratios,
	// shape-check outcomes).
	Notes []string
}

// AddSeries appends a series.
func (f *Figure) AddSeries(name string, x, y []float64) {
	f.Series = append(f.Series, Series{Name: name, X: x, Y: y})
}

// AddNote appends a formatted note.
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// Render writes the figure as an aligned text table: one row per x value,
// one column per series. Series with disjoint x-axes are merged on the
// union of x values; missing points render as "-".
func (f *Figure) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		b.WriteString("(no data)\n")
		_, err := io.WriteString(w, b.String())
		return err
	}

	xs := unionX(f.Series)
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, formatNum(x))
		for _, s := range f.Series {
			v, ok := lookup(s, x)
			if !ok {
				row = append(row, "-")
				continue
			}
			row = append(row, formatNum(v))
		}
		rows = append(rows, row)
	}
	writeAligned(&b, rows)
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(values: %s)\n", f.YLabel)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV streams the figure as CSV over the union x-axis.
func (f *Figure) WriteCSV(w io.Writer) error {
	cols := make([]string, 0, len(f.Series)+1)
	cols = append(cols, csvEscape(f.XLabel))
	for _, s := range f.Series {
		cols = append(cols, csvEscape(s.Name))
	}
	if _, err := io.WriteString(w, strings.Join(cols, ",")+"\n"); err != nil {
		return err
	}
	for _, x := range unionX(f.Series) {
		row := make([]string, 0, len(f.Series)+1)
		row = append(row, formatCSVNum(x))
		for _, s := range f.Series {
			if v, ok := lookup(s, x); ok {
				row = append(row, formatCSVNum(v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

func unionX(series []Series) []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	// Insertion sort: x-axes are short and nearly sorted.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	return xs
}

func lookup(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

func formatNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 0):
		return "Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%d", int64(v))
	case math.Abs(v) >= 1e5 || (v != 0 && math.Abs(v) < 1e-3):
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func formatCSVNum(v float64) string { return fmt.Sprintf("%g", v) }

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func writeAligned(b *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for c, cell := range row {
			if c < len(widths) && len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		for c, cell := range row {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[c]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
}

// WriteMarkdown renders the figure as a GitHub-flavored markdown section:
// a header, a table over the union x-axis, and the notes as a list.
func (f *Figure) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n\n", f.ID, f.Title)
	if len(f.Series) > 0 {
		b.WriteString("| " + mdEscape(f.XLabel))
		for _, s := range f.Series {
			b.WriteString(" | " + mdEscape(s.Name))
		}
		b.WriteString(" |\n|")
		for i := 0; i <= len(f.Series); i++ {
			b.WriteString("---|")
		}
		b.WriteString("\n")
		for _, x := range unionX(f.Series) {
			b.WriteString("| " + formatNum(x))
			for _, s := range f.Series {
				if v, ok := lookup(s, x); ok {
					b.WriteString(" | " + formatNum(v))
				} else {
					b.WriteString(" | —")
				}
			}
			b.WriteString(" |\n")
		}
		if f.YLabel != "" {
			fmt.Fprintf(&b, "\n*(values: %s)*\n", mdEscape(f.YLabel))
		}
	}
	if len(f.Notes) > 0 {
		b.WriteString("\n")
		for _, n := range f.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}

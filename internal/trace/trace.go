// Package trace provides the small data-wrangling layer the experiment
// harness uses to reproduce the paper's figures: histograms, CSV emission,
// and ASCII rendering for terminal output.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Histogram is a fixed-bucket-width histogram over float64 samples.
type Histogram struct {
	Width  float64
	counts map[int]int
	n      int
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns a histogram with the given bucket width.
func NewHistogram(width float64) *Histogram {
	if width <= 0 {
		panic("trace: histogram bucket width must be positive")
	}
	return &Histogram{Width: width, counts: make(map[int]int)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	b := int(v / h.Width)
	if v < 0 {
		b--
	}
	h.counts[b]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// N returns the sample count.
func (h *Histogram) N() int { return h.n }

// Mean returns the sample mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min and Max return the extreme samples seen.
func (h *Histogram) Min() float64 { return h.min }
func (h *Histogram) Max() float64 { return h.max }

// Bucket is one histogram bar.
type Bucket struct {
	Lo, Hi float64
	Count  int
}

// Buckets returns the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]Bucket, 0, len(keys))
	for _, k := range keys {
		out = append(out, Bucket{
			Lo:    float64(k) * h.Width,
			Hi:    float64(k+1) * h.Width,
			Count: h.counts[k],
		})
	}
	return out
}

// Render draws the histogram as ASCII bars of at most barWidth characters.
func (h *Histogram) Render(w io.Writer, barWidth int) {
	bks := h.Buckets()
	peak := 0
	for _, b := range bks {
		if b.Count > peak {
			peak = b.Count
		}
	}
	for _, b := range bks {
		bar := 0
		if peak > 0 {
			bar = b.Count * barWidth / peak
		}
		fmt.Fprintf(w, "%10.0f-%-8.0f |%-*s %d\n", b.Lo, b.Hi, barWidth, strings.Repeat("#", bar), b.Count)
	}
}

// WriteCSV emits a header row and numeric rows.
func WriteCSV(w io.Writer, header []string, rows [][]float64) error {
	records := make([][]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = fmt.Sprintf("%g", v)
		}
		records[i] = parts
	}
	return WriteCSVRecords(w, header, records)
}

// WriteCSVRecords writes pre-formatted cells, for tables whose leading
// columns are categorical (e.g. noise environment names) rather than numeric.
func WriteCSVRecords(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table accumulates aligned text rows for terminal reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// Sparkline renders ys as a compact unicode sparkline (for probe-time
// traces like Figures 6 and 8).
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	marks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(marks)-1))
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}

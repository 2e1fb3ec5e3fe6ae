// Package stats provides the small measurement toolkit shared by the
// benchmark harness: throughput math, aggregation over repeated runs, and
// plain-text/CSV table rendering for the paper's figures.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"

	"github.com/tcio/tcio/internal/simtime"
)

// ThroughputMBs converts (bytes, duration) into the paper's unit,
// MBytes/sec (decimal MB, as throughput plots conventionally use).
func ThroughputMBs(bytes int64, d simtime.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// Sample aggregates repeated measurements of one quantity.
type Sample struct {
	n    int
	sum  float64
	min  float64
	max  float64
	sumQ float64
}

// Add records one measurement.
func (s *Sample) Add(v float64) {
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if s.n == 0 || v > s.max {
		s.max = v
	}
	s.n++
	s.sum += v
	s.sumQ += v * v
}

// N reports the number of measurements.
func (s *Sample) N() int { return s.n }

// Mean reports the average (0 with no data).
func (s *Sample) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min reports the smallest measurement.
func (s *Sample) Min() float64 { return s.min }

// Max reports the largest measurement.
func (s *Sample) Max() float64 { return s.max }

// Stddev reports the population standard deviation.
func (s *Sample) Stddev() float64 {
	if s.n == 0 {
		return 0
	}
	m := s.Mean()
	v := s.sumQ/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Table is a rendered experiment result: one paper table or one figure's
// data series.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", len(t.Title))); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Headers)); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values (quotes are not handled;
// harness cells never contain commas).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Headers, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Write emits the table the way the drivers print one: aligned text, or
// with csv a "# title" line followed by the CSV.
func (t *Table) Write(w io.Writer, csv bool) error {
	if !csv {
		return t.Render(w)
	}
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	return t.CSV(w)
}

// FmtMBs formats a throughput value the way the paper's axes do.
func FmtMBs(v float64) string {
	return fmt.Sprintf("%.1f", v)
}

// FmtBytes formats a byte count with a binary-unit suffix.
func FmtBytes(n int64) string {
	switch {
	case n >= 1<<40:
		return fmt.Sprintf("%.1fTB", float64(n)/(1<<40))
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

package bench

import (
	"fmt"

	"github.com/tcio/tcio/internal/stats"
)

// This file is the experiment runner. Every experiment of the harness is a
// Sweep value — its points, the one function that measures a point, and
// its columns, each declared once — and Run is the only code that builds
// environments, derives verdicts, prints progress, renders tables and
// JSON rows, and projects a sweep onto its deterministic columns.

// Options is what a run is told from outside: the command line's common
// flags, or a test's miniature.
type Options struct {
	// LenReal is the materialized element count per array per process of
	// the sweeps sized from a paper-scale LENarray (EnvSpec.LenSim).
	LenReal int
	// Seed drives every fault-injection decision.
	Seed int64
	// Progress, if non-nil, receives one line per completed row.
	Progress func(string)
}

// Row is one measured point, the one record type every sweep reports.
type Row struct {
	// Point is the axis setting the row was measured at, as the sweep's
	// own record type; it may carry measurements no other sweep has.
	Point any
	// PhaseResult is the phase the row reports: the write phase of rows
	// that also read back.
	PhaseResult
	// Read is the read-back phase of write+read rows.
	Read PhaseResult
	// Result is the row's verdict as tabulated: "ok", or why not. A sweep
	// may set its own; left empty, the runner derives it from the phases.
	Result string
}

func (r *Row) verdict() string {
	switch {
	case r.Result != "":
		return r.Result
	case r.Failed:
		return r.FailReason
	case r.Read.Failed:
		return r.Read.FailReason
	}
	return "ok"
}

// Column declares one reported quantity, once: the header tables print,
// the key JSON rows carry (empty: tables only), the value, its cell format,
// and whether it is deterministic.
type Column struct {
	Header string
	Key    string
	// Det promises that at every point of the sweep the value is a pure
	// function of the options and the seed, whatever the host schedule.
	// TestHostOrderRatchet holds every Det cell of its miniatures to it.
	Det   bool
	Value func(*Row) any
	// Cell formats the table cell; nil prints Value with %v.
	Cell func(*Row) string
}

func (c Column) cell(r *Row) string {
	if c.Cell != nil {
		return c.Cell(r)
	}
	return fmt.Sprint(c.Value(r))
}

// det and host build the two kinds of column.
func det(header, key string, value func(*Row) any) Column {
	return Column{Header: header, Key: key, Det: true, Value: value}
}

func host(header, key string, value func(*Row) any, cell func(*Row) string) Column {
	return Column{Header: header, Key: key, Value: value, Cell: cell}
}

// Columns shared by several sweeps.
var (
	colResult = det("result", "result", func(r *Row) any { return r.Result })
	// colWrite and colRead are throughput cells that spell out a failure.
	colWrite = host("write MB/s", "mbs", func(r *Row) any { return r.MBs },
		func(r *Row) string { return phaseCell(r.PhaseResult) })
	colRead = host("read MB/s", "read_mbs", func(r *Row) any { return r.Read.MBs },
		func(r *Row) string { return phaseCell(r.Read) })
)

// phaseCell formats one throughput cell, or the failure it stands for.
func phaseCell(pr PhaseResult) string {
	if pr.Failed {
		return "FAIL (" + pr.FailReason + ")"
	}
	if pr.Omitted != "" {
		return pr.Omitted
	}
	return stats.FmtMBs(pr.MBs)
}

// Table is one view over a sweep's rows.
type Table struct {
	// Flag is the command-line flag that prints the table; empty means the
	// sweep's name.
	Flag    string
	Title   string
	Columns []Column
	// Series, when set, makes the table a figure: Columns is {x, y}, rows
	// that share an x label merge into one table row, and each distinct
	// Series value becomes a column of y cells.
	Series *Column
}

// columns lists the view's columns, a figure's series between x and y.
func (v Table) columns() []Column {
	if v.Series == nil {
		return v.Columns
	}
	return []Column{v.Columns[0], *v.Series, v.Columns[1]}
}

func (v Table) render(rows []Row) stats.Table {
	t := stats.Table{Title: v.Title}
	if v.Series == nil {
		for _, c := range v.Columns {
			t.Headers = append(t.Headers, c.Header)
		}
	} else {
		t.Headers = []string{v.Columns[0].Header}
	}
	for i := range rows {
		r := &rows[i]
		if v.Series == nil {
			cells := make([]string, len(v.Columns))
			for j, c := range v.Columns {
				cells[j] = c.cell(r)
			}
			t.AddRow(cells...)
			continue
		}
		label, series := v.Columns[0].cell(r), v.Series.cell(r)
		at := 1
		for at < len(t.Headers) && t.Headers[at] != series {
			at++
		}
		if at == len(t.Headers) {
			t.Headers = append(t.Headers, series)
		}
		if n := len(t.Rows); n == 0 || t.Rows[n-1][0] != label {
			t.AddRow(label)
		}
		last := &t.Rows[len(t.Rows)-1]
		for len(*last) <= at {
			*last = append(*last, "")
		}
		(*last)[at] = v.Columns[1].cell(r)
	}
	return t
}

// Flag is one sweep-specific command-line flag, bound to a field of the
// sweep's geometry: Var is a *int or a *[]int (elements at least 1).
type Flag struct {
	Name, Help string
	Var        any
}

// Sweep declares one experiment.
type Sweep struct {
	// Name is the command-line flag that runs the sweep (unless every
	// table names its own), the JSON entry's name and the progress prefix.
	Name string
	Help string
	// Flags are the sweep's own command-line flags.
	Flags []Flag
	// Params is the sweep's geometry, reported as the JSON entry's params.
	Params any
	// Validate checks the geometry's preconditions before anything runs.
	Validate func() error

	// Points lists the axis settings to measure.
	Points func() []any
	// Env states the environment a point runs in.
	Env func(o Options, pt any) EnvSpec
	// Run measures one point in a fresh environment. It returns one row,
	// or several when settings must share an environment (a write phase
	// and its read-back).
	Run func(env *Env, pt any) ([]Row, error)

	// Tables are the sweep's views.
	Tables func(o Options) []Table
	// JSON lists columns that appear in JSON rows but in no table.
	JSON []Column

	// Static, for the paper's literal tables, replaces all of the above.
	Static func(o Options) ([]stats.Table, error)
	// Note is printed after the sweep's tables.
	Note func() string
}

// tables is the Tables of a sweep whose views do not depend on the options.
func tables(views ...Table) func(Options) []Table {
	return func(Options) []Table { return views }
}

// points boxes a typed axis as sweep points.
func points[T any](axis []T) []any {
	pts := make([]any, len(axis))
	for i, v := range axis {
		pts[i] = v
	}
	return pts
}

// grid2 and grid3 list the points of a full grid, the first axis outermost.
func grid2[A, B any](as []A, bs []B, at func(A, B) any) []any {
	var pts []any
	for _, a := range as {
		for _, b := range bs {
			pts = append(pts, at(a, b))
		}
	}
	return pts
}

func grid3[A, B, C any](as []A, bs []B, cs []C, at func(A, B, C) any) []any {
	var pts []any
	for _, a := range as {
		pts = append(pts, grid2(bs, cs, func(b B, c C) any { return at(a, b, c) })...)
	}
	return pts
}

// flags maps the command-line flags that select the sweep — its tables'
// own, else its name — to their help text.
func (s *Sweep) flags() map[string]string {
	out := map[string]string{}
	if s.Tables != nil {
		for _, v := range s.Tables(Options{}) {
			if v.Flag != "" {
				out[v.Flag] = "regenerate " + v.Title
			}
		}
	}
	if len(out) == 0 {
		out[s.Name] = s.Help
	}
	return out
}

// Report is one sweep's outcome.
type Report struct {
	Sweep  *Sweep
	Rows   []Row
	views  []Table
	static []stats.Table
}

// Run executes the sweep.
func Run(s *Sweep, o Options) (*Report, error) {
	rep := &Report{Sweep: s}
	if s.Static != nil {
		var err error
		if rep.static, err = s.Static(o); err != nil {
			return nil, err
		}
		return rep, nil
	}
	if s.Validate != nil {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	rep.views = s.Tables(o)
	for _, pt := range s.Points() {
		env, err := o.newEnv(s.Env(o, pt))
		if err != nil {
			return nil, err
		}
		rows, err := s.Run(env, pt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		for i := range rows {
			rows[i].Result = rows[i].verdict()
			if o.Progress != nil {
				o.Progress(rep.progress(&rows[i]))
			}
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	return rep, nil
}

// progress renders a row's cells.
func (rep *Report) progress(r *Row) string {
	line := rep.Sweep.Name
	for _, c := range rep.columns() {
		if c.Header != "" {
			line += " " + c.Header + "=" + c.cell(r)
		}
	}
	return line
}

// Tables renders the views whose flag show admits; nil admits all.
func (rep *Report) Tables(show func(flag string) bool) []stats.Table {
	out := rep.static
	for _, v := range rep.views {
		if show == nil || show(v.Flag) {
			out = append(out, v.render(rep.Rows))
		}
	}
	return out
}

// columns lists, each once, the columns of every view and the JSON-only
// ones.
func (rep *Report) columns() []Column {
	var lists [][]Column
	for _, v := range rep.views {
		lists = append(lists, v.columns())
	}
	lists = append(lists, rep.Sweep.JSON)
	var out []Column
	seen := map[string]bool{}
	for _, cols := range lists {
		for _, c := range cols {
			id := c.Key
			if id == "" {
				id = c.Header
			}
			if !seen[id] {
				seen[id] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Det projects every row onto the report's Det columns: what two runs
// with the same options must agree on.
func (rep *Report) Det() [][]string {
	cols := rep.columns()
	out := make([][]string, len(rep.Rows))
	for i := range rep.Rows {
		for _, c := range cols {
			if c.Det {
				out[i] = append(out[i], c.cell(&rep.Rows[i]))
			}
		}
	}
	return out
}

// Entry is one sweep's part of the -json document. Row keys are the
// columns' JSON keys.
type Entry struct {
	Name   string           `json:"name"`
	Params any              `json:"params,omitempty"`
	Rows   []map[string]any `json:"rows"`
}

// Entry renders the report for the -json document.
func (rep *Report) Entry() Entry {
	e := Entry{Name: rep.Sweep.Name, Params: rep.Sweep.Params, Rows: []map[string]any{}}
	cols := rep.columns()
	for i := range rep.Rows {
		row := map[string]any{}
		for _, c := range cols {
			if c.Key != "" {
				row[c.Key] = c.Value(&rep.Rows[i])
			}
		}
		e.Rows = append(e.Rows, row)
	}
	return e
}

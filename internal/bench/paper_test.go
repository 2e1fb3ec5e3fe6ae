package bench

// The paper's figures as one table. Each row names a figure or table of the
// paper, what the paper reports there, the value the model gives, and the
// assertion that holds the model to the paper. A row that moves names the
// paper level a change moved.
//
// Exact rows hold virtual nanoseconds. A row the host schedule can still
// move (TCIO's MB/s, the ART factors) holds a band, stated with the runs it
// came from; the bands tighten once virtual time no longer follows host
// arrival order (ROADMAP item 1).
//
// The rows read three sweeps. Each runs once, on the first row that needs
// it, so `-run 'TestPaper/fig5'` runs only Fig. 5's sweep.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/tcio/tcio/internal/simtime"
)

// paperRuns are the sweeps the rows read, each run on first use.
type paperRuns struct {
	fig5Once, fig6Once, artOnce sync.Once
	fig5, fig6, art             *Report
	fig5Err, fig6Err, artErr    error
}

// fig5Report is Table II's Figure 5 sweep at 64…1 024 ranks.
func (p *paperRuns) fig5Report(t *testing.T) *Report {
	p.fig5Once.Do(func() { p.fig5, p.fig5Err = Run(fig5Sweep(defaultFig5()), Options{LenReal: 1024}) })
	return allOK(t, p.fig5, p.fig5Err)
}

// fig6Report is a miniature of Fig. 6's 48 GB point: per-rank simulated
// data that OCIO's double buffering cannot fit but TCIO can. 12 processes
// are one full node: 2 GiB per rank. OCIO's point fails by design.
func (p *paperRuns) fig6Report(t *testing.T) *Report {
	p.fig6Once.Do(func() {
		p.fig6, p.fig6Err = Run(fig67Sweep(&figGeometry{Procs: []int{12}, LenSims: []int{64 << 20}}), Options{LenReal: 1 << 10})
	})
	if p.fig6Err != nil {
		t.Fatal(p.fig6Err)
	}
	return p.fig6
}

// artReport is artbench's default ART point at 64 ranks (Figs. 9 and 10).
func (p *paperRuns) artReport(t *testing.T) *Report {
	p.artOnce.Do(func() {
		g := DefaultART()
		g.Procs = []int{64}
		p.art, p.artErr = Run(ART(g), Options{})
	})
	return allOK(t, p.art, p.artErr)
}

// allOK fails the row on a sweep error or on any failed point.
func allOK(t *testing.T, rep *Report, err error) *Report {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rows {
		if p := r.Point.(FigPoint); r.Result != "ok" {
			t.Fatalf("%v at %d ranks failed: %s", p.Method, p.Procs, r.Result)
		}
	}
	return rep
}

// row returns the report's row for one library at one process count.
func row(t *testing.T, rep *Report, procs int, m Method) *Row {
	t.Helper()
	for i := range rep.Rows {
		if p := rep.Rows[i].Point.(FigPoint); p.Procs == procs && p.Method == m {
			return &rep.Rows[i]
		}
	}
	t.Fatalf("no %v row at %d ranks", m, procs)
	return nil
}

// ocioFig5Ns is OCIO's Fig. 5 write and read phase by process count, in
// virtual ns: exact on every run since the exchange resolves at its last
// arrival and the I/O phase runs in clock order.
var ocioFig5Ns = map[int][2]simtime.Duration{
	64:   {4_955_627_524, 2_586_247_926},
	128:  {7_954_190_260, 3_037_931_373},
	256:  {16_143_329_914, 5_303_878_753},
	512:  {43_128_940_062, 16_224_338_190},
	1024: {145_173_677_364, 68_991_661_084},
}

// paperRow is one line of the table. model returns the model's value,
// rendered, and whether the assertion holds.
type paperRow struct {
	name      string // subtest name
	figure    string
	paper     string // what the paper reports
	assertion string
	sweep     bool // reads a full-size sweep: skipped under -short
	model     func(t *testing.T, runs *paperRuns) (string, bool)
}

var paperRows = []paperRow{
	{
		// Five runs on a 2-CPU x86-64 host (go1.24, GOMAXPROCS 2) read TCIO /
		// OCIO 0.82x, 0.74x, 0.79x, 1.09x and 1.87x at 64…1 024 ranks, the
		// same on every run: the nearest point to flipping, 512 ranks, leads
		// by 9 %.
		name: "fig5-crossover", sweep: true, figure: "Fig. 5 (write)",
		paper:     "OCIO leads at small scale, TCIO at large",
		assertion: "TCIO's write MB/s is above OCIO's exactly at 512 and 1 024 ranks",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.fig5Report(t)
			var ratios []string
			ok := true
			for _, procs := range defaultFig5().Procs {
				tw, ow := row(t, rep, procs, MethodTCIO).MBs, row(t, rep, procs, MethodOCIO).MBs
				ratios = append(ratios, fmt.Sprintf("%d: %.2fx", procs, tw/ow))
				ok = ok && (tw > ow) == (procs >= 512)
			}
			return "TCIO / OCIO write " + strings.Join(ratios, ", "), ok
		},
	},
	{
		// The same five runs read 2.4–2.7x, 1.8–1.9x, 1.9x, 3.1–3.3x and
		// 7.0–7.1x: TCIO's read level follows host order, its lead does not.
		name: "fig5-read", sweep: true, figure: "Fig. 5 (read)",
		paper:     "TCIO reads above OCIO",
		assertion: "TCIO's read MB/s is above OCIO's at every rank count",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.fig5Report(t)
			var ratios []string
			ok := true
			for _, procs := range defaultFig5().Procs {
				tr, or := row(t, rep, procs, MethodTCIO).Read.MBs, row(t, rep, procs, MethodOCIO).Read.MBs
				ratios = append(ratios, fmt.Sprintf("%d: %.1fx", procs, tr/or))
				ok = ok && tr > or
			}
			return "TCIO / OCIO read " + strings.Join(ratios, ", "), ok
		},
	},
	{
		name: "fig5-ocio-exact", sweep: true, figure: "Fig. 5 (OCIO)",
		paper:     "OCIO's curves",
		assertion: "OCIO's write and read phases take the pinned virtual ns at 64…1 024 ranks",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.fig5Report(t)
			var moved []string
			for _, procs := range defaultFig5().Procs {
				r, want := row(t, rep, procs, MethodOCIO), ocioFig5Ns[procs]
				if r.Time != want[0] || r.Read.Time != want[1] {
					moved = append(moved, fmt.Sprintf("%d ranks: write %d ns, read %d ns; pinned %d and %d",
						procs, int64(r.Time), int64(r.Read.Time), int64(want[0]), int64(want[1])))
				}
			}
			if len(moved) > 0 {
				return strings.Join(moved, "; "), false
			}
			return "every point as pinned", true
		},
	},
	{
		// Exact: simulated allocation, 1.48x on every run.
		name: "table3-peak-memory", sweep: true, figure: "Table III (memory efficiency)",
		paper:     "OCIO ~2x data size, TCIO data size + one segment",
		assertion: "OCIO's peak rank memory is above TCIO's at Fig. 5's 64-rank point",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.fig5Report(t)
			o, c := row(t, rep, 64, MethodOCIO).PeakMemory, row(t, rep, 64, MethodTCIO).PeakMemory
			return fmt.Sprintf("OCIO %d B, TCIO %d B (%.2fx)", o, c, float64(o)/float64(c)), o > c
		},
	},
	{
		name: "fig6-ocio-oom", sweep: true, figure: "Figs. 6/7 (48 GB)",
		paper:     "OCIO fails for lack of memory, TCIO completes",
		assertion: "at the 2 GiB-per-rank miniature OCIO's write is out of memory, TCIO's completes, and the table shows FAIL",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.fig6Report(t)
			tc, oc := row(t, rep, 12, MethodTCIO), row(t, rep, 12, MethodOCIO)
			shown := strings.Contains(strings.Join(rep.Tables(nil)[0].Rows[0], " "), "FAIL")
			return fmt.Sprintf("TCIO %q, OCIO %q, table shows FAIL: %v", tc.Result, oc.Result, shown),
				!tc.Failed && oc.Failed && oc.FailReason == "out of memory" && shown
		},
	},
	{
		// Band: ten runs of this row on the host above read 231x–244x. The
		// floor sits far below them because the vanilla column follows host
		// arrival order (ROADMAP item 1).
		name: "fig9-art-write", sweep: true, figure: "Fig. 9 (ART write, 64 ranks)",
		paper:     "TCIO ~100x vanilla MPI-IO",
		assertion: "TCIO / vanilla write MB/s >= 50x",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.artReport(t)
			f := row(t, rep, 64, MethodTCIO).MBs / row(t, rep, 64, MethodVanilla).MBs
			return fmt.Sprintf("%.0fx", f), f >= 50
		},
	},
	{
		// Band: the same ten runs read 125x–135x; the floor is wide for the
		// same reason as the write row's.
		name: "fig10-art-read", sweep: true, figure: "Fig. 10 (ART restart, 64 ranks)",
		paper:     "TCIO ~100x vanilla MPI-IO",
		assertion: "TCIO / vanilla read MB/s >= 20x",
		model: func(t *testing.T, runs *paperRuns) (string, bool) {
			rep := runs.artReport(t)
			f := row(t, rep, 64, MethodTCIO).Read.MBs / row(t, rep, 64, MethodVanilla).Read.MBs
			return fmt.Sprintf("%.0fx", f), f >= 20
		},
	},
	{
		name: "program-lines-write", figure: "Programs 2/3 (write)",
		paper:     "OCIO's program needs many lines, TCIO's few",
		assertion: "the TCIO write program is shorter than the OCIO one",
		model: func(t *testing.T, _ *paperRuns) (string, bool) {
			ocio, tc := ProgramLines()
			return fmt.Sprintf("OCIO %d lines, TCIO %d", ocio, tc), tc > 0 && tc < ocio
		},
	},
	{
		name: "program-lines-read", figure: "Programs 2/3 (read)",
		paper:     "OCIO's program needs many lines, TCIO's few",
		assertion: "the TCIO read program is shorter than the OCIO one",
		model: func(t *testing.T, _ *paperRuns) (string, bool) {
			ocio, tc := ProgramReadLines()
			return fmt.Sprintf("OCIO %d lines, TCIO %d", ocio, tc), tc > 0 && tc < ocio
		},
	},
}

// TestPaper checks every row of the table; each row is one subtest.
func TestPaper(t *testing.T) {
	runs := new(paperRuns)
	for _, r := range paperRows {
		t.Run(r.name, func(t *testing.T) {
			if testing.Short() && r.sweep {
				t.Skip("full-size sweep")
			}
			got, ok := r.model(t, runs)
			t.Logf("%s: paper %s; model %s", r.figure, r.paper, got)
			if !ok {
				t.Errorf("%s: model %s; want %s", r.figure, got, r.assertion)
			}
		})
	}
}

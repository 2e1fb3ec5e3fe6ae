package bench

import (
	"fmt"
	"strings"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
)

// This file declares the paper's tables and figures. Each figure is a
// Sweep whose rows are the points of the original plot; EXPERIMENTS.md
// records the measured outputs next to the paper's reported shapes.

// paperTypes and paperSizeAccess are Table II's TYPEarray (int, double)
// and SIZEaccess, the same in every synthetic sweep.
var paperTypes = []datatype.Type{datatype.Int, datatype.Double}

const paperSizeAccess = 1

// synthGeometry is what the sweeps of the synthetic workload share.
type synthGeometry struct {
	Procs  int // process count of each run
	LenSim int // paper-scale LENarray in elements
}

func (g *synthGeometry) env(Options, any) EnvSpec { return EnvSpec{LenSim: g.LenSim} }

// config is the paper's workload for one method at the geometry and the
// environment's materialized size, every byte verified on read-back.
func (g *synthGeometry) config(env *Env, m Method, name string) SyntheticConfig {
	return SyntheticConfig{
		Method:     m,
		Procs:      g.Procs,
		TypeArray:  paperTypes,
		LenArray:   env.LenReal,
		SizeAccess: paperSizeAccess,
		Verify:     true,
		FileName:   name,
	}
}

// synthRow runs the write and the read phase of cfg as one row.
func synthRow(env *Env, pt any, cfg SyntheticConfig) ([]Row, error) {
	res, err := RunSynthetic(env, cfg)
	if err != nil {
		return nil, err
	}
	return []Row{{Point: pt, PhaseResult: res.Write, Read: res.Read}}, nil
}

// FigPoint is one (x, method) point of the throughput figures.
type FigPoint struct {
	Procs int
	// LenSim is the paper-scale LENarray (Figs. 5-7).
	LenSim int
	Method Method
}

var (
	colProcs    = det("procs", "procs", func(r *Row) any { return r.Point.(FigPoint).Procs })
	colMethod   = det("method", "method", func(r *Row) any { return r.Point.(FigPoint).Method.String() })
	colFileSize = Column{Header: "file size", Key: "file_bytes", Det: true,
		Value: func(r *Row) any { return r.SimBytes },
		Cell:  func(r *Row) string { return stats.FmtBytes(r.SimBytes) }}
)

// figure completes a sweep whose rows are FigPoints with its two views:
// write and read throughput over the x column, one series per method.
func figure(s Sweep, x Column, write, read Table) *Sweep {
	write.Columns, write.Series = []Column{x, colWrite}, &colMethod
	read.Columns, read.Series = []Column{x, colRead}, &colMethod
	s.Tables = tables(write, read)
	return &s
}

// figGeometry parameterizes Figs. 5-7: the grid of process counts and
// paper-scale LENarray values on which TCIO and OCIO are compared.
type figGeometry struct {
	Procs   []int
	LenSims []int
}

// defaultFig5 returns the paper's Table II configuration: 64..1024
// processes at LENarray 4M.
func defaultFig5() *figGeometry {
	return &figGeometry{Procs: []int{64, 128, 256, 512, 1024}, LenSims: []int{4 << 20}}
}

// defaultFig67 returns the paper's Fig. 6/7 configuration: 64 processes,
// LENarray 1M..64M, i.e. file sizes 768 MB..48 GB.
func defaultFig67() *figGeometry {
	return &figGeometry{Procs: []int{64}, LenSims: []int{1 << 20, 4 << 20, 16 << 20, 64 << 20}}
}

// synthFigure is a Figs. 5-7 sweep over g's grid.
func synthFigure(s Sweep, g *figGeometry, x Column, write, read Table) *Sweep {
	s.Params = g
	s.Points = func(bool) []any {
		return grid3(g.Procs, g.LenSims, []Method{MethodTCIO, MethodOCIO},
			func(p, l int, m Method) any { return FigPoint{Procs: p, LenSim: l, Method: m} })
	}
	s.Env = func(_ Options, pt any) EnvSpec { return EnvSpec{LenSim: pt.(FigPoint).LenSim} }
	s.Run = func(env *Env, pt any) ([]Row, error) {
		p := pt.(FigPoint)
		return synthRow(env, p, (&synthGeometry{Procs: p.Procs}).config(env, p.Method, "fig.dat"))
	}
	return figure(s, x, write, read)
}

// fig5Sweep regenerates Figure 5: synthetic write and read throughput as a
// function of the number of processes, TCIO vs OCIO.
func fig5Sweep(g *figGeometry) *Sweep {
	return synthFigure(Sweep{
		Name:  "fig5",
		Help:  "regenerate Figure 5 (throughput vs processes)",
		Flags: []Flag{{"procs", "comma-separated process counts for -fig5", &g.Procs}},
	}, g, colProcs,
		Table{Title: "Figure 5 (left): write throughput vs processes (MBytes/sec)"},
		Table{Title: "Figure 5 (right): read throughput vs processes (MBytes/sec)"})
}

// fig67Sweep regenerates Figures 6 and 7: write and read throughput vs file
// size at 64 processes. The 48 GB point reproduces the paper's headline
// failure: OCIO runs out of memory while TCIO completes.
func fig67Sweep(g *figGeometry) *Sweep {
	return synthFigure(Sweep{Name: "fig6/7"}, g, colFileSize,
		Table{Flag: "fig6", Title: fmt.Sprintf("Figure 6: write throughput vs file size, %d processes (MBytes/sec)", g.Procs[0])},
		Table{Flag: "fig7", Title: fmt.Sprintf("Figure 7: read throughput vs file size, %d processes (MBytes/sec)", g.Procs[0])})
}

// ARTGeometry parameterizes the cosmology-application experiment
// (Figs. 9-10).
type ARTGeometry struct {
	Procs []int // x-axis process counts
	// Trees is the number of FTT segments (paper Table IV: 1024).
	Trees int
	Vars  int // per-cell variables
	// MuCells, SigmaCells, Seed define the Table IV size distribution.
	MuCells, SigmaCells float64
	Seed                int64
	Scale               int64 // environment byte scale
	// VanillaCutoff is the paper's ">90 minutes" rule: vanilla MPI-IO
	// points whose simulated runtime exceeds it are reported as such.
	VanillaCutoff simtime.Duration
}

// DefaultART returns the paper's §V.C configuration at workstation scale.
func DefaultART() *ARTGeometry {
	return &ARTGeometry{
		Procs:      []int{64, 128, 256, 512, 1024},
		Trees:      art.TableIV.Segments,
		Vars:       2,
		MuCells:    art.TableIV.Mu,
		SigmaCells: art.TableIV.Sigma,
		Seed:       art.TableIV.Seed,
		// ART records are materialized at full size (a 2048-cell tree with
		// two variables is ~35 KB), so no byte scaling is needed — and
		// scaling would distort the piece-size distribution that drives
		// the vanilla-MPI-IO penalty.
		Scale:         1,
		VanillaCutoff: simtime.Duration(90) * 60 * simtime.Second,
	}
}

// runART measures one checkpoint dump + restart through the point's
// library (MethodVanilla: independent MPI-IO).
func runART(g *ARTGeometry, env *Env, p FigPoint) Row {
	lib := art.LibTCIO
	if p.Method == MethodVanilla {
		lib = art.LibVanilla
	}
	const name = "art.ckpt"
	mkTrees := func(c *mpi.Comm) []*art.Tree {
		sizes := art.SegmentSizes(g.Trees, g.MuCells, g.SigmaCells, g.Seed)
		var out []*art.Tree
		for _, id := range art.OwnedBy(g.Trees, c.Size(), c.Rank()) {
			rng := art.TreeRNG(g.Seed, int64(id))
			out = append(out, art.Generate(int64(id), sizes[id], g.Vars, rng))
		}
		return out
	}
	// finish honours the 90-minute rule.
	finish := func(pr *PhaseResult) {
		if !pr.Failed && lib == art.LibVanilla && g.VanillaCutoff > 0 && pr.Time > g.VanillaCutoff {
			pr.Omitted = fmt.Sprintf("omitted (>%v)", g.VanillaCutoff)
		}
	}

	// Dump phase. The checkpoint's size is known only once it is written.
	row := Row{Point: p}
	row.PhaseResult = env.Run(p.Procs, 0, func(c *mpi.Comm, _ *Tally) error {
		return art.Dump(c, lib, name, mkTrees(c), g.Trees, 0)
	})
	if row.Failed {
		row.Read = row.PhaseResult
		return row
	}
	row.SimBytes = env.FS.Open(name).Size() * env.Scale
	row.MBs = stats.ThroughputMBs(row.SimBytes, row.Time)
	finish(&row.PhaseResult)

	// Restart phase: read back and verify every tree.
	env.FS.Reset()
	row.Read = env.Run(p.Procs, row.SimBytes, func(c *mpi.Comm, _ *Tally) error {
		want := mkTrees(c)
		got, err := art.Restore(c, lib, name)
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("restored %d trees, want %d", len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return fmt.Errorf("tree %d corrupted across dump/restart", want[i].ID)
			}
		}
		return nil
	})
	finish(&row.Read)
	return row
}

// ART regenerates Figures 9 and 10: ART checkpoint write and restart read
// throughput, TCIO vs vanilla MPI-IO. Its rows are FigPoints.
func ART(g *ARTGeometry) *Sweep {
	return figure(Sweep{
		Name: "fig9/10",
		Flags: []Flag{
			{"procs", "comma-separated process counts", &g.Procs},
			{"trees", "number of FTT segments (Table IV: 1024)", &g.Trees},
		},
		Params: g,
		Validate: func() error {
			if g.Trees < 1 {
				return fmt.Errorf("bench: -trees %d", g.Trees)
			}
			return nil
		},
		Points: func(bool) []any {
			return grid2(g.Procs, []Method{MethodTCIO, MethodVanilla},
				func(p int, m Method) any { return FigPoint{Procs: p, Method: m} })
		},
		Env: func(Options, any) EnvSpec { return EnvSpec{Scale: g.Scale} },
		Run: func(env *Env, pt any) ([]Row, error) { return []Row{runART(g, env, pt.(FigPoint))}, nil },
	}, colProcs,
		Table{Flag: "fig9", Title: "Figure 9: ART write throughput vs processes (MBytes/sec)"},
		Table{Flag: "fig10", Title: "Figure 10: ART read throughput vs processes (MBytes/sec)"})
}

// tablesSweep prints Tables I-III and the programming-effort line; g is
// Figure 5's geometry, which Table II describes.
func tablesSweep(g *figGeometry) *Sweep {
	return &Sweep{
		Name: "tables",
		Help: "print Tables I, II and III",
		Static: func(o Options) ([]stats.Table, error) {
			if _, err := o.byteScale(g.LenSims[0]); err != nil {
				return nil, err
			}
			return []stats.Table{Table1(), Table2(g, o.LenReal), Table3()}, nil
		},
		Note: func() string {
			loc2, loc3 := ProgramLines()
			r2, r3 := ProgramReadLines()
			return fmt.Sprintf("programming effort: OCIO write=%d read=%d lines; TCIO write=%d read=%d lines\n\n",
				loc2, r2, loc3, r3)
		},
	}
}

// table4Sweep prints Table IV.
func table4Sweep() *Sweep {
	return &Sweep{
		Name:   "table4",
		Help:   "print Table IV (segment generation)",
		Static: func(Options) ([]stats.Table, error) { return []stats.Table{Table4()}, nil },
	}
}

// Table1 renders the paper's Table I: the benchmark's configuration
// parameters.
func Table1() stats.Table {
	t := stats.Table{
		Title:   "Table I: configuration parameters",
		Headers: []string{"symbol", "description"},
	}
	t.AddRow("method", "0: OCIO; 1: TCIO; 2: MPI-IO")
	t.AddRow("NUMarray", "number of arrays within each process")
	t.AddRow("TYPEarray", "array element types, comma separated (c,s,i,f,d)")
	t.AddRow("LENarray", "length of arrays")
	t.AddRow("SIZEaccess", "array elements per I/O access")
	return t
}

// Table2 renders the paper's Table II: the Fig. 5 experiment configuration.
func Table2(g *figGeometry, lenReal int) stats.Table {
	t := stats.Table{
		Title:   "Table II: experiment configuration",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("NUMarray", fmt.Sprint(len(paperTypes)))
	names := make([]string, len(paperTypes))
	for i, ty := range paperTypes {
		names[i] = ty.String()
	}
	t.AddRow("TYPEarray", strings.Join(names, ","))
	t.AddRow("LENarray", fmt.Sprintf("%d (simulated; %d materialized)", g.LenSims[0], lenReal))
	t.AddRow("SIZEaccess", fmt.Sprint(paperSizeAccess))
	t.AddRow("NUMproc", fmt.Sprint(g.Procs))
	return t
}

// Table3 renders the paper's Table III: the qualitative OCIO/TCIO
// comparison, with the lines-of-code row measured from the actual
// Program 2/3 sources.
func Table3() stats.Table {
	t := stats.Table{
		Title:   "Table III: comparison between OCIO and TCIO",
		Headers: []string{"aspect", "original collective I/O", "transparent collective I/O"},
	}
	loc2, loc3 := ProgramLines()
	t.AddRow("application-level buffer", "yes", "no")
	t.AddRow("file view", "yes", "no")
	t.AddRow("lines of code (write path)", fmt.Sprintf("many (%d)", loc2), fmt.Sprintf("few (%d)", loc3))
	t.AddRow("memory efficiency", "poor (~2x data size)", "high (data size + one segment)")
	t.AddRow("restriction", "patterns expressible as derived datatypes", "any POSIX-like access pattern")
	return t
}

// Table4 renders the paper's Table IV: the ART segment-size distribution.
func Table4() stats.Table {
	t := stats.Table{
		Title:   "Table IV: segments generation",
		Headers: []string{"parameter", "value"},
	}
	t.AddRow("distribution", "Normal")
	t.AddRow("mu", fmt.Sprint(art.TableIV.Mu))
	t.AddRow("sigma", fmt.Sprint(art.TableIV.Sigma))
	t.AddRow("seed", fmt.Sprint(art.TableIV.Seed))
	t.AddRow("segments", fmt.Sprint(art.TableIV.Segments))
	sizes := art.SegmentSizes(art.TableIV.Segments, art.TableIV.Mu, art.TableIV.Sigma, art.TableIV.Seed)
	var s stats.Sample
	for _, v := range sizes {
		s.Add(float64(v))
	}
	t.AddRow("measured mean", fmt.Sprintf("%.1f cells", s.Mean()))
	t.AddRow("measured stddev", fmt.Sprintf("%.1f cells", s.Stddev()))
	return t
}

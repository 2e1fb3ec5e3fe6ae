package bench

// The crash/out-of-core sweep (-crash): two experiments over the journaled
// level-2 tier, both fully seed-deterministic so CI can diff two runs.
//
// The out-of-core experiment runs a strided write workload on a machine
// whose enforced per-node memory cannot hold the level-2 windows: the
// unbudgeted configuration must die with the typed out-of-memory error,
// while every budgeted configuration completes byte-exactly by spilling
// journaled segments and re-faulting them at drain time — the workload OCIO
// (which must buffer entire windows) cannot run at this memory point.
//
// The crash experiment runs the same workload cleanly under a pfs operation
// log, then replays the log at several seed-drawn virtual kill instants,
// runs tcio.Recover over each reconstructed disk, and verifies the result
// against the committed-prefix expectation (a byte appears iff its owner's
// journal committed the byte's flush epoch by the kill instant, or the
// owner's journal was already durably truncated).

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/wal"
)

// crashGeometry configures the crash/out-of-core sweep.
type crashGeometry struct {
	Procs int // rank count of every run
	Kills int // crash instants replayed per configuration
	// SegmentSize and NumSegments shape the level-2 windows.
	SegmentSize int64
	NumSegments int
	// Blocks is the number of 16-byte blocks each rank writes, round-robin
	// interleaved across ranks; Rounds splits them into flush epochs.
	Blocks int
	Rounds int
	// Budgets lists the resident-segment budgets to sweep. 0 means
	// unbudgeted: expected to OOM in the out-of-core experiment, and run
	// journal-only (no spill) in the crash experiment.
	Budgets []int64
	// MemPerNode and CoresPerNode define the constrained machine of the
	// out-of-core experiment.
	MemPerNode   int64
	CoresPerNode int
}

// defaultCrash returns the sweep reported in EXPERIMENTS.md: 8 ranks two to
// a node, 16 KiB of level-2 window per rank against 32 KiB nodes, budgets
// of 0 / 2 / 8 segments, six kills per configuration.
func defaultCrash() *crashGeometry {
	return &crashGeometry{
		Procs: 8, Kills: 6, SegmentSize: 256, NumSegments: 64, Blocks: 192, Rounds: 4,
		Budgets: []int64{0, 2, 8}, MemPerNode: 32 << 10, CoresPerNode: 2,
	}
}

// crashPoint is one (experiment, budget) configuration and, for the crash
// experiment (Kill; otherwise out-of-core), its kill tally.
type crashPoint struct {
	Kill       bool
	BudgetSegs int64
	Kills      int
	KillsOK    int
}

const crashFile = "crash.dat"

// crashByte is the deterministic payload generator of the sweep's workload.
func crashByte(rank, block, j int) byte { return byte(rank*31 + block*7 + j + 5) }

// crashImage is the file image the workload produces, restricted to the
// bytes keep admits (nil: all of them); b is a byte's file offset and i its
// block's index in the writer's sequence.
func crashImage(procs, blocks int, keep func(b int64, i int) bool) []byte {
	out := make([]byte, procs*blocks*16)
	for r := 0; r < procs; r++ {
		for i := 0; i < blocks; i++ {
			for j := 0; j < 16; j++ {
				if b := (i*procs+r)*16 + j; keep == nil || keep(int64(b), i) {
					out[b] = crashByte(r, i, j)
				}
			}
		}
	}
	return out
}

// crashWorkload writes each rank's blocks round-robin interleaved, flushing
// between the workload's rounds (the final round's runs journal at Close).
func crashWorkload(c *mpi.Comm, f *tcio.File, blocks, rounds int) error {
	per := (blocks + rounds - 1) / rounds
	for i := 0; i < blocks; i++ {
		pos := int64((i*c.Size() + c.Rank()) * 16)
		var buf [16]byte
		for j := range buf {
			buf[j] = crashByte(c.Rank(), i, j)
		}
		if err := f.WriteAt(pos, buf[:]); err != nil {
			return err
		}
		if (i+1)%per == 0 && i+1 < blocks {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// crashRun runs the workload once under cfg in env and totals the ranks'
// journal and spill counters.
func crashRun(g *crashGeometry, env *Env, cfg tcio.Config) PhaseResult {
	return env.Run(g.Procs, 0, func(c *mpi.Comm, t *Tally) error {
		f, err := tcio.Open(c, crashFile, tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		if err := crashWorkload(c, f, g.Blocks, g.Rounds); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t.TCIO(f.Stats())
		return nil
	})
}

// config is the tcio configuration of one point.
func (g *crashGeometry) config(p crashPoint) tcio.Config {
	cfg := tcio.Config{SegmentSize: g.SegmentSize, NumSegments: g.NumSegments, Journal: p.Kill}
	if p.BudgetSegs > 0 {
		cfg.SegmentMemoryBudget = p.BudgetSegs * g.SegmentSize
	}
	return cfg
}

// crashOOMPoint runs one out-of-core configuration on the constrained
// machine (memory enforcement is always armed).
func crashOOMPoint(g *crashGeometry, p crashPoint) Row {
	m := cluster.Lonestar()
	m.CoresPerNode = g.CoresPerNode
	m.MemPerNode = g.MemPerNode
	env := &Env{Machine: m, FS: pfs.New(pfs.DefaultConfig()), Scale: 1}
	row := Row{Point: p, PhaseResult: crashRun(g, env, g.config(p))}
	switch {
	case p.BudgetSegs == 0 && row.FailReason == reasonOOM:
		row.Result = "OOM (windows exceed node memory)"
	case p.BudgetSegs == 0:
		row.Result = fmt.Sprintf("UNEXPECTED: wanted OOM, got %q", row.FailReason)
	case row.Failed:
		row.Result = "FAILED: " + row.FailReason
	case !bytes.Equal(env.FS.Open(crashFile).Snapshot(), crashImage(g.Procs, g.Blocks, nil)):
		row.Result = "CORRUPT: image diverged"
	}
	return row
}

// crashKillPoint runs one crash configuration: a clean logged run, then
// Kills replay-recover-verify cycles at instants drawn from the seed. The
// row reports the journal counters and the kill tally only.
func crashKillPoint(g *crashGeometry, seed int64, p crashPoint) Row {
	env := &Env{FS: pfs.New(pfs.DefaultConfig()), Scale: 1}
	log := &pfs.Oplog{}
	env.FS.SetOplog(log)
	cfg := g.config(p)
	run := crashRun(g, env, cfg)
	p.Kills = g.Kills
	row := Row{Point: p, PhaseResult: PhaseResult{TCIO: run.TCIO}}
	if run.Failed {
		row.Result = "FAILED: " + run.FailReason
		return row
	}
	rng := rand.New(rand.NewSource(seed*1664525 + 1013904223 + p.BudgetSegs))
	m := int64(run.Time)
	lo := 3 * m / 10
	span := m - lo + m/20 + 1
	for k := 0; k < g.Kills; k++ {
		at := simtime.Time(lo + rng.Int63n(span))
		if err := crashVerifyKill(g, cfg, log, at); err != nil {
			row.Result = fmt.Sprintf("KILL at %v: %v", at, err)
			break
		}
		p.KillsOK++
	}
	row.Point = p
	return row
}

// crashSweep tabulates both experiments. Every reported quantity is a pure
// function of the geometry and the seed (virtual-time kill draws included),
// so two sweeps with the same options emit identical tables.
func crashSweep(g *crashGeometry) *Sweep {
	at := func(r *Row) crashPoint { return r.Point.(crashPoint) }
	return &Sweep{
		Name: "crash",
		Help: "run the out-of-core / crash-recovery sweep (uses -seed)",
		Flags: []Flag{
			{"crash-kills", "kill instants replayed per -crash configuration", &g.Kills},
			{"crash-budgets", "comma-separated resident-segment budgets for -crash", &g.Budgets},
		},
		Params: g,
		Validate: func() error {
			if g.Kills < 1 {
				return fmt.Errorf("bench: %d kills per crash configuration", g.Kills)
			}
			return nil
		},
		Points: func(bool) []any {
			return grid2([]bool{false, true}, g.Budgets,
				func(kill bool, b int64) any { return crashPoint{Kill: kill, BudgetSegs: b} })
		},
		// Both experiments build their own machine and file system; the
		// runner's environment only carries the seed.
		Env: func(Options, any) EnvSpec { return EnvSpec{Scale: 1} },
		Run: func(env *Env, pt any) ([]Row, error) {
			if p := pt.(crashPoint); p.Kill {
				return []Row{crashKillPoint(g, env.Seed, p)}, nil
			}
			return []Row{crashOOMPoint(g, pt.(crashPoint))}, nil
		},
		Tables: func(o Options) []Table {
			return []Table{{
				Title: fmt.Sprintf("Crash/out-of-core sweep: %d ranks, %d kills, seed %d (all columns seed-deterministic)",
					g.Procs, g.Kills, o.Seed),
				Columns: []Column{
					det("experiment", "experiment", func(r *Row) any { return pick(at(r).Kill, "crash", "out-of-core") }),
					det("budget-segs", "budget_segs", func(r *Row) any { return at(r).BudgetSegs }),
					colResult,
					det("peak-mem", "peak_memory", func(r *Row) any { return r.PeakMemory }),
					det("spills", "spills", func(r *Row) any { return r.TCIO.SpillSegments }),
					det("clean-drops", "clean_drops", func(r *Row) any { return r.TCIO.CleanDrops }),
					det("refault-B", "refault_bytes", func(r *Row) any { return r.TCIO.SpillRefaultBytes }),
					det("journal-B", "journal_bytes", func(r *Row) any { return r.TCIO.JournalBytes }),
					det("epochs", "epochs", func(r *Row) any { return r.TCIO.JournalEpochs }),
					det("commits", "commits", func(r *Row) any { return r.TCIO.JournalCommits }),
					det("kills", "kills", func(r *Row) any { return at(r).Kills }),
					det("kills-ok", "kills_ok", func(r *Row) any { return at(r).KillsOK }),
				},
			}}
		},
	}
}

// crashVerifyKill reconstructs the crash at one instant, recovers, and
// checks the committed-prefix expectation.
func crashVerifyKill(opts *crashGeometry, cfg tcio.Config, log *pfs.Oplog, at simtime.Time) error {
	crashed := pfs.New(pfs.DefaultConfig())
	log.ReplayAt(crashed, at)

	// Committed epochs per rank from the crashed journals; a durable
	// truncate means the rank fully drained before the kill.
	committed := make([]map[int64]bool, opts.Procs)
	for rank := 0; rank < opts.Procs; rank++ {
		committed[rank] = make(map[int64]bool)
		wn := tcio.WALFileName(crashFile, rank)
		if !crashed.Exists(wn) {
			continue
		}
		epochs, err := wal.Decode(crashed.Open(wn).Snapshot())
		if err != nil {
			return fmt.Errorf("rank %d journal: %w", rank, err)
		}
		for _, ep := range epochs {
			committed[rank][ep.Seq] = true
		}
	}
	for _, r := range log.Records() {
		if r.Kind != pfs.OpTruncate || r.End > at {
			continue
		}
		for rank := 0; rank < opts.Procs; rank++ {
			if r.Name == tcio.WALFileName(crashFile, rank) {
				for seq := int64(1); seq <= int64(opts.Rounds); seq++ {
					committed[rank][seq] = true
				}
			}
		}
	}

	if _, err := tcio.Recover(crashed, crashFile, cfg); err != nil {
		return fmt.Errorf("recover: %w", err)
	}

	per := (opts.Blocks + opts.Rounds - 1) / opts.Rounds
	expected := crashImage(opts.Procs, opts.Blocks, func(b int64, i int) bool {
		owner := int((b / opts.SegmentSize) % int64(opts.Procs))
		return committed[owner][int64(i/per)+1]
	})
	// Compare as if both images were zero-extended to the longer one.
	got := crashed.Open(crashFile).Snapshot()
	pad := func(img []byte, i int) byte {
		if i < len(img) {
			return img[i]
		}
		return 0
	}
	for i := 0; i < max(len(got), len(expected)); i++ {
		if g, w := pad(got, i), pad(expected, i); g != w {
			return fmt.Errorf("recovered byte %d = %#x, committed-prefix model %#x", i, g, w)
		}
	}
	return nil
}

package bench

// The crash sweep (-crash): the journaled level-2 tier under simulated
// crashes, fully seed-deterministic so two runs diff empty. It runs a
// strided write workload cleanly under a pfs operation log, then replays
// the log at several seed-drawn virtual kill instants, runs tcio.Recover
// over each reconstructed disk, and verifies the result against the
// committed-prefix expectation (a byte appears iff its owner's journal
// committed the byte's flush epoch by the kill instant, or the owner's
// journal was already durably truncated).

import (
	"fmt"
	"math/rand"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/wal"
)

// crashGeometry configures the crash sweep.
type crashGeometry struct {
	Procs int // rank count of every run
	Kills int // crash instants replayed
	// SegmentSize and NumSegments shape the level-2 windows.
	SegmentSize int64
	NumSegments int
	// Blocks is the number of 16-byte blocks each rank writes, round-robin
	// interleaved across ranks; Rounds splits them into flush epochs.
	Blocks int
	Rounds int
}

// defaultCrash returns the sweep reported in EXPERIMENTS.md: 8 ranks with
// 16 KiB of level-2 window each, six kills.
func defaultCrash() *crashGeometry {
	return &crashGeometry{Procs: 8, Kills: 6, SegmentSize: 256, NumSegments: 64, Blocks: 192, Rounds: 4}
}

// crashPoint is the sweep's one configuration and its kill tally.
type crashPoint struct {
	Kills   int
	KillsOK int
}

const crashFile = "crash.dat"

// crashByte is the deterministic payload generator of the sweep's workload.
func crashByte(rank, block, j int) byte { return byte(rank*31 + block*7 + j + 5) }

// crashImage is the file image the workload produces, restricted to the
// bytes keep admits; b is a byte's file offset and i its block's index in
// the writer's sequence.
func crashImage(procs, blocks int, keep func(b int64, i int) bool) []byte {
	out := make([]byte, procs*blocks*16)
	for r := 0; r < procs; r++ {
		for i := 0; i < blocks; i++ {
			for j := 0; j < 16; j++ {
				if b := (i*procs+r)*16 + j; keep(int64(b), i) {
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
// journal counters.
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

// crashKillPoint runs the sweep's configuration: a clean logged run, then
// Kills replay-recover-verify cycles at instants drawn from the seed. The
// row reports the journal counters and the kill tally only.
func crashKillPoint(g *crashGeometry, seed int64) Row {
	env := &Env{FS: pfs.New(pfs.DefaultConfig()), Scale: 1}
	log := &pfs.Oplog{}
	env.FS.SetOplog(log)
	cfg := tcio.Config{SegmentSize: g.SegmentSize, NumSegments: g.NumSegments, Journal: true}
	run := crashRun(g, env, cfg)
	p := crashPoint{Kills: g.Kills}
	row := Row{Point: p, PhaseResult: PhaseResult{TCIO: run.TCIO}}
	if run.Failed {
		row.Result = "FAILED: " + run.FailReason
		return row
	}
	rng := rand.New(rand.NewSource(seed*1664525 + 1013904223))
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

// crashSweep tabulates the crash experiment. Every reported quantity is a
// pure function of the geometry and the seed (virtual-time kill draws
// included), so two sweeps with the same options emit identical tables.
func crashSweep(g *crashGeometry) *Sweep {
	at := func(r *Row) crashPoint { return r.Point.(crashPoint) }
	return &Sweep{
		Name: "crash",
		Help: "run the crash-recovery sweep (uses -seed)",
		Flags: []Flag{
			{"crash-kills", "kill instants replayed by -crash", &g.Kills},
		},
		Params: g,
		Validate: func() error {
			if g.Kills < 1 {
				return fmt.Errorf("bench: %d kills per crash configuration", g.Kills)
			}
			return nil
		},
		Points: func(bool) []any { return []any{crashPoint{}} },
		// The experiment builds its own file system; the runner's
		// environment only carries the seed.
		Env: func(Options, any) EnvSpec { return EnvSpec{Scale: 1} },
		Run: func(env *Env, _ any) ([]Row, error) {
			return []Row{crashKillPoint(g, env.Seed)}, nil
		},
		Tables: func(o Options) []Table {
			return []Table{{
				Title: fmt.Sprintf("Crash sweep: %d ranks, %d kills, seed %d (all columns seed-deterministic)",
					g.Procs, g.Kills, o.Seed),
				Columns: []Column{
					colResult,
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

package bench

// This file declares the noncontiguous-read sweep: hole-y read workloads
// run through the data-sieving read engine (tcio.Config.SieveBuffer) and the
// two-phase collective read (tcio.Config.CollectiveRead) while the sieve
// budget, the hole density, and the interleave granule vary.
//
// Two workloads bracket the engine's trade-offs:
//
//   - "holes": every rank reads granule-sized runs from its own contiguous,
//     segment-aligned quarter of the file, skipping a density-controlled
//     subset of granules. Each level-2 segment is demanded by exactly one
//     rank, so per-segment populate work — and every fault roll it keys —
//     is a pure function of the pattern. The sweep pits per-run list I/O
//     (SieveBuffer=1) against covering sieve reads at growing budgets: the
//     covering read saves (runs-1) request setups per segment and pays for
//     the holes it drags in, so sieving wins while hole bytes stay cheaper
//     than the saved setups.
//
//   - "interleave": granule g deals every block of the file to rank
//     (block mod P), so all ranks demand every segment. Independently, each
//     rank sieves only its own runs — up to P partial populates per segment
//     under the owner's lock. The two-phase collective read instead merges
//     all ranks' intents in one allgather; each owner then populates its
//     segments' union in one pass. The finer the granule, the more
//     redundant per-rank covering reads the exchange replaces.
//
// Bytes are verified against the generator at every setting; neither
// sieving nor the collective exchange may change a single byte read.

import (
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// sieveGeometry configures the noncontiguous-read sweep.
type sieveGeometry struct {
	segGeometry
	HoleGranule int64 // real block size of the holes workload
	Densities   []int // hole percentages of the holes workload
	// Budgets lists the real SieveBuffer settings swept by the holes
	// workload (0 = whole-segment populate, 1 = per-run list I/O).
	Budgets []int64
	// Granules lists the real interleave block sizes for the collective
	// comparison.
	Granules []int64
}

// defaultSieve sweeps hole densities 25/50/75% against four sieve budgets
// and interleave granules of 4/16/64 KiB (simulated) against the two-phase
// collective read, over 8 processes and 256 KiB (simulated) segments.
func defaultSieve() *sieveGeometry {
	return &sieveGeometry{
		segGeometry: segGeometry{Procs: 8, SegSize: 16 << 10, SegsPerRank: 4, Scale: 16},
		HoleGranule: 256,
		Densities:   []int{25, 50, 75},
		Budgets:     []int64{0, 1, 4 << 10, 16 << 10},
		Granules:    []int64{256, 1 << 10, 4 << 10},
	}
}

// sievePoint is one read setting. Sizes are real bytes.
type sievePoint struct {
	// Holes selects the holes workload at density HolePct; otherwise the
	// point is the interleave workload at block size Granule.
	Holes      bool
	HolePct    int
	Granule    int64
	Budget     int64
	Collective bool
}

// sieveByte is the workload's deterministic content generator.
func sieveByte(off int64) byte {
	x := uint64(off)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	x ^= x >> 31
	return byte(x * 0x9E3779B97F4A7C15 >> 56)
}

// sieveHole decides, as a pure function of the block index and the density,
// whether the holes workload skips a granule.
func sieveHole(block int64, pct int) bool {
	x := uint64(block+1) * 0xD1342543DE82EF95
	x ^= x >> 32
	x *= 0x2545F4914F6CDD1D
	return int(x>>33%100) < pct
}

// sieveRun is one contiguous read of the workload's access pattern.
type sieveRun struct{ off, n int64 }

// runs builds one rank's coalesced access pattern for the point. Holes:
// granule blocks of the rank's contiguous quarter, minus the
// density-selected holes. Interleave: every granule block dealt round-robin
// to the rank.
func (g *sieveGeometry) runs(p sievePoint, rank int) []sieveRun {
	var runs []sieveRun
	if !p.Holes {
		for off := int64(rank) * p.Granule; off < g.fileBytes(); off += p.Granule * int64(g.Procs) {
			runs = append(runs, sieveRun{off, p.Granule})
		}
		return runs
	}
	perRank := g.SegSize * int64(g.SegsPerRank)
	lo, hi := int64(rank)*perRank, int64(rank+1)*perRank
	for off := lo; off < hi; off += g.HoleGranule {
		if sieveHole(off/g.HoleGranule, p.HolePct) {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].off+runs[n-1].n == off {
			runs[n-1].n += g.HoleGranule
			continue
		}
		runs = append(runs, sieveRun{off, g.HoleGranule})
	}
	return runs
}

const sieveFile = "sieve.dat"

// sieveSeed writes the ground-truth file image through the library once per
// environment: rank r writes its contiguous quarter in segment-size pieces.
func sieveSeed(g *sieveGeometry, env *Env) PhaseResult {
	cfg := tcio.Config{SegmentSize: g.SegSize, NumSegments: g.SegsPerRank}
	return env.Run(g.Procs, 0, func(c *mpi.Comm, _ *Tally) error {
		handle, err := tcio.Open(c, sieveFile, tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		perRank := g.SegSize * int64(g.SegsPerRank)
		base := int64(c.Rank()) * perRank
		buf := make([]byte, g.SegSize)
		for off := int64(0); off < perRank; off += g.SegSize {
			for i := range buf {
				buf[i] = sieveByte(base + off + int64(i))
			}
			if err := handle.WriteAt(base+off, buf); err != nil {
				return err
			}
		}
		return handle.Close()
	})
}

// sieveRead runs one read setting against the seeded file: every rank
// issues its runs lazily, fetches once (a collective call when the
// two-phase exchange is on), closes, and verifies the bytes it read.
func sieveRead(g *sieveGeometry, env *Env, p sievePoint) PhaseResult {
	env.FS.Reset()
	var readBytes int64
	for r := 0; r < g.Procs; r++ {
		for _, run := range g.runs(p, r) {
			readBytes += run.n
		}
	}
	cfg := tcio.Config{
		SegmentSize:    g.SegSize,
		NumSegments:    g.SegsPerRank,
		DemandPopulate: true,
		SieveBuffer:    p.Budget,
		CollectiveRead: p.Collective,
	}
	return env.Run(g.Procs, readBytes*g.Scale, func(c *mpi.Comm, t *Tally) error {
		handle, err := tcio.Open(c, sieveFile, tcio.ReadMode, cfg)
		if err != nil {
			return err
		}
		runs := g.runs(p, c.Rank())
		var total int64
		for _, run := range runs {
			total += run.n
		}
		buf := make([]byte, total)
		at := int64(0)
		for _, run := range runs {
			if err := handle.ReadAt(run.off, buf[at:at+run.n]); err != nil {
				return err
			}
			at += run.n
		}
		if err := handle.Fetch(); err != nil {
			return err
		}
		if err := handle.Close(); err != nil {
			return err
		}
		t.TCIO(handle.Stats())
		at = 0
		for _, run := range runs {
			if err := checkBytes(c.Rank(), run.off, buf[at:at+run.n], sieveByte); err != nil {
				return err
			}
			at += run.n
		}
		return nil
	})
}

// validate checks the sweep's alignment preconditions.
func (g *sieveGeometry) validate() error {
	if g.HoleGranule < 1 || g.SegSize%g.HoleGranule != 0 {
		return fmt.Errorf("bench: segment size %d not a multiple of hole granule %d",
			g.SegSize, g.HoleGranule)
	}
	for _, b := range g.Budgets {
		if b < 0 {
			return fmt.Errorf("bench: sieve budget %d", b)
		}
	}
	return g.segGeometry.validate(g.Granules...)
}

// sieveSweep runs the holes workload over every (density, budget) cell,
// then the interleave workload over every granule with the two-phase
// collective read off and on.
//
// The projection's settings are chosen so every FS read is a pure function
// of the pattern: in the holes workload each segment is demanded by exactly
// one rank, and the collective interleave's owners populate their segments'
// merged intents. (The independent interleave is deliberately absent — which
// rank populates which part of a shared segment is scheduling-dependent.)
func sieveSweep(g *sieveGeometry) *Sweep {
	at := func(r *Row) sievePoint { return r.Point.(sievePoint) }
	workload := det("workload", "workload", func(r *Row) any { return pick(at(r).Holes, "holes", "interleave") })
	// A budget renders as simulated bytes, the two degenerate settings named.
	budget := Column{Header: "sieve-buf", Key: "sieve_buffer", Det: true,
		Value: func(r *Row) any { return at(r).Budget * g.Scale },
		Cell: func(r *Row) string {
			switch b := at(r).Budget; b {
			case 0:
				return "off(segment)"
			case 1:
				return "1(list-I/O)"
			default:
				return fmt.Sprint(b * g.Scale)
			}
		}}
	sieveReads := det("sieve-reads", "sieve_reads", func(r *Row) any { return r.TCIO.SieveReads })
	waste := det("waste-bytes", "sieve_waste_bytes", func(r *Row) any { return r.TCIO.SieveWasteBytes * g.Scale })
	exchanges := det("exchanges", "two_phase_exchanges", func(r *Row) any { return r.TCIO.TwoPhaseExchanges })
	return &Sweep{
		Name:     "sieve",
		Help:     "sweep the noncontiguous read engine (sieve budget x hole density x interleave granule)",
		InAll:    true,
		Params:   g,
		Validate: g.validate,
		Points: func(chaos bool) []any {
			if chaos {
				return []any{
					sievePoint{Holes: true, HolePct: 50, Budget: 1},
					sievePoint{Holes: true, HolePct: 50, Budget: g.SegSize},
					sievePoint{Granule: g.Granules[0], Budget: g.SegSize, Collective: true},
				}
			}
			return append(
				grid2(g.Densities, g.Budgets, func(pct int, b int64) any {
					return sievePoint{Holes: true, HolePct: pct, Budget: b}
				}),
				grid2(g.Granules, []bool{false, true}, func(gr int64, coll bool) any {
					return sievePoint{Granule: gr, Budget: g.SegSize, Collective: coll}
				})...)
		},
		Env: g.env,
		Run: func(env *Env, pt any) ([]Row, error) {
			seed := sieveSeed(g, env)
			if seed.Failed {
				return nil, fmt.Errorf("seeding the file: %s", seed.FailReason)
			}
			row := Row{Point: pt, PhaseResult: sieveRead(g, env, pt.(sievePoint))}
			row.Injected += seed.Injected
			return []Row{row}, nil
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("Data sieving: hole-y reads, %d processes, %d B simulated segments",
				g.Procs, g.SegSize*g.Scale),
			Where: func(r *Row) bool { return at(r).Holes },
			Columns: []Column{
				det("holes%", "hole_pct", func(r *Row) any { return at(r).HolePct }),
				budget, colTime, colMBs, colFSReads, sieveReads, waste, colPopulations, colResult,
			},
		}, Table{
			Title: fmt.Sprintf("Two-phase collective read: granule-interleaved reads, %d processes", g.Procs),
			Where: func(r *Row) bool { return !at(r).Holes },
			Columns: []Column{
				det("granule", "granule", func(r *Row) any { return at(r).Granule * g.Scale }),
				{Header: "mode", Key: "collective_read", Det: true,
					Value: func(r *Row) any { return at(r).Collective },
					Cell:  func(r *Row) string { return pick(at(r).Collective, "collective", "independent") }},
				colTime, colMBs, colFSReads, sieveReads, waste, exchanges, colResult,
			},
		}),
		Projection: &Table{
			Title: fmt.Sprintf("Noncontiguous-read chaos: %d processes", g.Procs),
			Columns: []Column{
				workload,
				det("setting", "", func(r *Row) any {
					return pick(at(r).Holes, fmt.Sprintf("%d%%", at(r).HolePct), fmt.Sprintf("%dB", at(r).Granule*g.Scale))
				}),
				budget, colInjected, colRetries, colFSReads, sieveReads, waste, exchanges, colResult,
			},
		},
		JSON: []Column{workload},
	}
}

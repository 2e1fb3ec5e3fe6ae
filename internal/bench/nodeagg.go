package bench

// This file declares the node-aggregation sweep: a granule-interleaved
// write workload in which every level-2 segment is written by exactly the
// ranks of one node, run with and without tcio.Config.NodeAggregation while
// the node width (CoresPerNode) and the segment size vary. The workload is
// built so the arithmetic is exact: with granule g = segSize/cores and the
// writer of byte b being rank (b/g) mod P, the cores co-located ranks of one
// node write each segment, so aggregation must replace their cores separate
// inter-node puts with one combined put — an inter-node message reduction of
// exactly (cores-1)/cores. Bytes are verified against the generator at every
// setting; aggregation may only change the message stream, never the file.

import (
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// nodeAggGeometry configures the node-aggregation sweep.
type nodeAggGeometry struct {
	// Procs is the process count of each run. It must be a multiple of
	// every entry of Cores so node blocks tile the rank space exactly.
	Procs int
	// Cores lists the CoresPerNode settings to sweep (1 = every rank on
	// its own node, the degenerate case aggregation must not change).
	Cores []int
	// SegSizes lists the real segment sizes to sweep; each must be a
	// multiple of every Cores entry.
	SegSizes    []int64
	SegsPerRank int   // level-2 segments per process
	Scale       int64 // environment byte scale (simulated bytes per real byte)
}

// defaultNodeAgg sweeps node widths 1/2/4/8 and two segment sizes over 16
// processes. The simulated segments (16 KiB and 64 KiB) sit in the
// message-overhead-dominated regime where collapsing per-rank puts pays:
// one merged put saves (cores-1) x (setup + latency) per segment against an
// intra-node staging cost of segSize/MemBandwidth, and the former dominates
// below roughly (cores-1) x 50 KiB.
func defaultNodeAgg() *nodeAggGeometry {
	return &nodeAggGeometry{Procs: 16, Cores: []int{1, 2, 4, 8}, SegSizes: []int64{1 << 10, 4 << 10}, SegsPerRank: 6, Scale: 16}
}

// nodeAggPoint is one (cores, segment size, aggregation) setting.
type nodeAggPoint struct {
	Cores   int
	SegSize int64 // real bytes
	Agg     bool
}

// nodeAggByte is the workload's deterministic content generator.
func nodeAggByte(off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	x ^= x >> 29
	return byte(x * 0xBF58476D1CE4E5B9 >> 56)
}

// nodeAggWrite runs the granule-interleaved write at one setting. Rank r
// writes every granule k with k mod P == r, so segment s (granules s*cores
// .. s*cores+cores-1) is written by the full node block (s mod (P/cores)) —
// the aligned pattern aggregation collapses exactly.
func nodeAggWrite(g *nodeAggGeometry, env *Env, p nodeAggPoint) PhaseResult {
	fileBytes := p.SegSize * int64(g.SegsPerRank) * int64(g.Procs)
	granule := p.SegSize / int64(p.Cores)
	env.Machine.CoresPerNode = p.Cores
	cfg := tcio.Config{
		SegmentSize:     p.SegSize,
		NumSegments:     g.SegsPerRank,
		NodeAggregation: p.Agg,
	}
	pr := env.Run(g.Procs, fileBytes*g.Scale, func(c *mpi.Comm, t *Tally) error {
		handle, err := tcio.Open(c, "nodeagg.dat", tcio.WriteMode, cfg)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		for k := int64(c.Rank()); k*granule < fileBytes; k += int64(c.Size()) {
			off := k * granule
			for i := range buf {
				buf[i] = nodeAggByte(off + int64(i))
			}
			if err := handle.WriteAt(off, buf); err != nil {
				return err
			}
		}
		cerr := handle.Close()
		t.TCIO(handle.Stats())
		return cerr
	})
	want := make([]byte, fileBytes)
	for off := range want {
		want[off] = nodeAggByte(int64(off))
	}
	env.CheckImage(&pr, "nodeagg.dat", want)
	return pr
}

// nodeAggSweep runs every (cores, segment size) cell with aggregation off
// and on, tabulating inter-node message counts and the end-to-end virtual
// time side by side.
//
// The projection is a reduced grid (the extreme node widths at the first
// segment size). Virtual times are absent from it; the message stream's
// identity, the combine bookkeeping, and every fault roll are not
// scheduling facts: deposits never roll, and a leader's combined puts roll
// SiteWinPut keyed by its own deterministic shipment order.
func nodeAggSweep(g *nodeAggGeometry) *Sweep {
	at := func(r *Row) nodeAggPoint { return r.Point.(nodeAggPoint) }
	cores := det("cores/node", "cores_per_node", func(r *Row) any { return at(r).Cores })
	agg := det("nodeagg", "node_aggregation", func(r *Row) any { return at(r).Agg })
	msgs := det("msgs", "messages", func(r *Row) any { return r.Net.Messages })
	local := det("local-msgs", "local_messages", func(r *Row) any { return r.Net.LocalMessages })
	combines := det("combines", "node_combines", func(r *Row) any { return r.TCIO.NodeCombines })
	saved := det("puts-saved", "inter_node_puts_saved", func(r *Row) any { return r.TCIO.InterNodePutsSaved })
	return &Sweep{
		Name:   "nodeagg",
		Help:   "sweep intra-node aggregation (cores/node x segment size)",
		InAll:  true,
		Params: g,
		Points: func(chaos bool) []any {
			coreAxis, segAxis := g.Cores, g.SegSizes
			if chaos {
				coreAxis, segAxis = []int{1, g.Cores[len(g.Cores)-1]}, g.SegSizes[:1]
			}
			return grid3(coreAxis, segAxis, []bool{false, true},
				func(c int, seg int64, on bool) any { return nodeAggPoint{Cores: c, SegSize: seg, Agg: on} })
		},
		Env: func(Options, any) EnvSpec { return EnvSpec{Scale: g.Scale} },
		Run: func(env *Env, pt any) ([]Row, error) {
			return []Row{{Point: pt, PhaseResult: nodeAggWrite(g, env, pt.(nodeAggPoint))}}, nil
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("Node aggregation: granule-interleaved write, %d processes, %d segments/rank",
				g.Procs, g.SegsPerRank),
			Columns: []Column{
				cores,
				det("seg-size", "seg_size", func(r *Row) any { return at(r).SegSize * g.Scale }),
				agg, colTime, colMBs,
				det("inter-node-msgs", "inter_node_messages", func(r *Row) any { return r.Net.Messages - r.Net.LocalMessages }),
				local, combines, saved, colResult,
			},
		}),
		Projection: &Table{
			Title:   fmt.Sprintf("Node aggregation chaos: %d processes", g.Procs),
			Columns: []Column{cores, agg, colInjected, colRetries, colFSWrites, msgs, local, combines, saved, colResult},
		},
		JSON: []Column{msgs, colFSWrites},
	}
}

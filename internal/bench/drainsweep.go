package bench

// This file declares the drain-parallelism sweep: the TCIO workload run
// on a multi-OST file while Config.DrainWorkers varies. The paper's
// environment stripes each file over one OST (Table II), which serializes
// the drain no matter how it is issued; with a wider stripe the per-OST
// worker fan-out of the storage layer overlaps a rank's drain and preload
// requests across object servers, and this sweep measures the effect.
// Byte contents are identical at every setting (verification pins this);
// only the virtual timing changes.

import "fmt"

// drainGeometry configures the drain-parallelism sweep.
type drainGeometry struct {
	synthGeometry
	Fanouts []int // DrainWorkers settings to sweep
}

// defaultDrainSweep sweeps 1/2/4/8 workers over a 7-way striped file with
// 16 processes (16 and 7 are coprime, so each rank's segments cycle
// through all seven OSTs).
func defaultDrainSweep() *drainGeometry {
	return &drainGeometry{
		synthGeometry: synthGeometry{Procs: 16, StripeCount: 7, LenSim: 4 << 20},
		Fanouts:       []int{1, 2, 4, 8},
	}
}

// drainSweep runs the TCIO write+read workload at each worker count.
func drainSweep(g *drainGeometry) *Sweep {
	return &Sweep{
		Name:   "drainsweep",
		Help:   "sweep TCIO drain fan-out on a multi-OST stripe",
		InAll:  true,
		Params: g,
		Points: func(bool) []any { return points(g.Fanouts) },
		Env:    g.env,
		Run: func(env *Env, pt any) ([]Row, error) {
			cfg := g.config(env, MethodTCIO, fmt.Sprintf("drainsweep-%d", pt.(int)))
			cfg.DrainWorkers = pt.(int)
			return synthRow(env, pt, cfg)
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("Drain parallelism: %d processes, stripe over %d OSTs (TCIO)", g.Procs, g.StripeCount),
			Columns: []Column{
				det("drain-workers", "drain_workers", func(r *Row) any { return r.Point.(int) }),
				colTime.as("write-time"), colMBs.as("write-MB/s"), colReadTime, colReadMBs,
				colFSWrites, colResult,
			},
		}),
	}
}

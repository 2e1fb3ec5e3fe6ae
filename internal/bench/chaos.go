package bench

import "fmt"

// This file declares the chaos ablation: the synthetic benchmark run under
// deterministic fault injection, sweeping the OST transient-error rate
// while the interconnect, the memory accountant, and the one-sided put path
// misbehave at fixed background rates. Only deterministic quantities are
// reported (counts, not virtual times), so two sweeps with the same seed
// emit byte-identical tables — the property the chaos tests pin down.

// chaosGeometry configures the chaos sweep.
type chaosGeometry struct {
	synthGeometry
	// Rates lists the OST transient-error probabilities to sweep (applied
	// to both reads and writes).
	Rates []float64
	// Rules are the background fault probabilities.
	Rules chaosRules
}

// defaultChaos returns the sweep reported in EXPERIMENTS.md: 64 processes,
// OST error rates 0 / 1% / 5%, with background interconnect, memory, and
// put-path faults.
func defaultChaos() *chaosGeometry {
	return &chaosGeometry{
		synthGeometry: synthGeometry{Procs: 64, LenSim: 4 << 20},
		Rates:         []float64{0, 0.01, 0.05},
		Rules:         defaultChaosRules,
	}
}

// chaosPoint is one (rate, method) environment; its rows add the phase.
type chaosPoint struct {
	Rate   float64
	Method Method
	Phase  string
}

// chaosSweep runs TCIO and OCIO write+read under each OST error rate and
// tabulates injection and retry counts.
func chaosSweep(g *chaosGeometry) *Sweep {
	at := func(r *Row) chaosPoint { return r.Point.(chaosPoint) }
	return &Sweep{
		Name:   chaosName,
		Help:   "run the fault-injection chaos sweep; with sweeps that have a deterministic projection, print that instead",
		Flags:  []Flag{{"chaos-procs", "process count for -chaos", &g.Procs}},
		Params: g,
		Validate: func() error {
			if g.Procs < 1 {
				return fmt.Errorf("bench: -chaos-procs %d", g.Procs)
			}
			return nil
		},
		Points: func(bool) []any {
			return grid2(g.Rates, []Method{MethodTCIO, MethodOCIO},
				func(rate float64, m Method) any { return chaosPoint{Rate: rate, Method: m} })
		},
		Env: func(o Options, pt any) EnvSpec {
			spec := g.env(o, pt)
			spec.Faults = g.Rules.injector(o.Seed, pt.(chaosPoint).Rate)
			return spec
		},
		Run: func(env *Env, pt any) ([]Row, error) {
			p := pt.(chaosPoint)
			cfg := g.config(env, p.Method, fmt.Sprintf("chaos-%v-%d", p.Method, int(p.Rate*1000)))
			p.Phase = "write"
			rows := []Row{{Point: p, PhaseResult: runPhase(env, cfg, true)}}
			if !rows[0].Failed { // else nothing on disk to read back
				p.Phase = "read"
				rows = append(rows, Row{Point: p, PhaseResult: runPhase(env, cfg, false)})
			}
			return rows, nil
		},
		Tables: func(o Options) []Table {
			return []Table{{
				Title: fmt.Sprintf("Chaos sweep: %d processes, seed %d (counts are seed-deterministic)", g.Procs, o.Seed),
				Columns: []Column{
					{Header: "ost-rate", Key: "ost_rate", Det: true,
						Value: func(r *Row) any { return at(r).Rate },
						Cell:  func(r *Row) string { return fmt.Sprintf("%.2f", at(r).Rate) }},
					det("method", "method", func(r *Row) any { return at(r).Method.String() }),
					det("phase", "phase", func(r *Row) any { return at(r).Phase }),
					colInjected, colFSRetries,
					det("setup-retries", "setup_retries", func(r *Row) any { return r.Net.SetupRetries }),
					det("slow-svc", "slow_services", func(r *Row) any { return r.FS.SlowServices }),
					det("lock-storms", "lock_storms", func(r *Row) any { return r.FS.LockStorms }),
					colAllocRetries, colResult,
				},
			}}
		},
	}
}

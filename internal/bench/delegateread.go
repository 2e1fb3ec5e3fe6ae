package bench

// This file declares the delegated read sweep: the same strided
// workload as the delegation write sweep, read back through the tier
// while the server hot-block cache, the access pattern, and collective
// reads vary.
//
// Each cell writes the file once and then reads it twice — a cold pass
// and a hot re-read — and reports the two passes' virtual times
// separately. Virtual time is not additive across separate simulations,
// so the per-pass times come from run differencing: three runs per cell
// (write only; write + one pass; write + two passes), each in a fresh
// environment, give cold = T1 - T0 and hot = T2 - T1. The pass
// decomposition:
//
//   - pattern = private: client i reads the pieces it wrote (block-
//     disjoint streams). pattern = shared: every client reads the whole
//     file, the N-to-1 analysis-input pattern where requests overlap
//     completely across ranks.
//
//   - cache = 0 is the disarmed baseline: every read request reaches the
//     file system, and the hot pass repeats the cold pass's requests.
//     cache > 0 arms the server LRU: the cold pass fills whole domain
//     blocks once, the hot pass is served from server memory without a
//     single file system read.
//
//   - collective off ships one protocol request per piece; collective on
//     batches each pass into one read-intent epoch per client, and the
//     server stages the merged union once per domain block — overlapping
//     requests across clients collapse before the file system sees them.
//
// Bytes are verified on the final pass against the write generator.

import "fmt"

// Read-sweep access patterns.
const (
	PatternPrivate = "private"
	PatternShared  = "shared"
)

// delegateReadGeometry configures the delegated read sweep.
type delegateReadGeometry struct {
	segGeometry
	// Servers is the dedicated server-rank count (at least 1 — the
	// pass-through read path is the sieve sweep's subject, not this one's).
	Servers     int
	CacheBlocks []int    // server cache capacities swept (0 = disarmed)
	Patterns    []string // access patterns swept (PatternPrivate, PatternShared)
	Collective  []bool   // collective-read settings swept
	// ReadQuantum is the DRR fairness quantum in real bytes (0 = inline
	// arrival order); it may reorder service but never counts, so it is a
	// fixed option rather than an axis.
	ReadQuantum int64
	ReqSize     int64 // real per-piece request size
}

// defaultDelegateRead sweeps disarmed vs armed cache, private vs shared
// patterns, and independent vs collective reads over 8 clients and one
// server, with a DRR quantum armed so the artifact exercises the fair
// scheduler.
func defaultDelegateRead() *delegateReadGeometry {
	return &delegateReadGeometry{
		segGeometry: segGeometry{Procs: 8, SegSize: 16 << 10, SegsPerRank: 4, Scale: 16},
		Servers:     1,
		CacheBlocks: []int{0, 16},
		Patterns:    []string{PatternPrivate, PatternShared},
		Collective:  []bool{false, true},
		ReadQuantum: 4 << 10,
		ReqSize:     2 << 10,
	}
}

// delegateReadPoint is one (pattern, cache, collective) cell and the
// pass decomposition its three runs yield. The Ns fields are virtual
// nanoseconds and, being scheduling-sensitive at the margin, are not Det.
type delegateReadPoint struct {
	Pattern     string
	CacheBlocks int
	Collective  bool

	ColdNs, HotNs           int64
	FSReadsCold, FSReadsHot int64
}

// validate checks the sweep's alignment preconditions.
func (g *delegateReadGeometry) validate() error {
	if g.Servers < 1 {
		return fmt.Errorf("bench: read sweep needs a server rank, got %d", g.Servers)
	}
	for _, c := range g.CacheBlocks {
		if c < 0 {
			return fmt.Errorf("bench: %d cache blocks", c)
		}
	}
	for _, p := range g.Patterns {
		if p != PatternPrivate && p != PatternShared {
			return fmt.Errorf("bench: unknown read pattern %q", p)
		}
	}
	return g.segGeometry.validate(g.ReqSize)
}

// delegateReadSweep runs every (pattern, cache, collective) cell, three
// runs each for the cold/hot time split.
func delegateReadSweep(g *delegateReadGeometry) *Sweep {
	at := func(r *Row) delegateReadPoint { return r.Point.(delegateReadPoint) }
	ns := func(header, key string, v func(delegateReadPoint) int64) Column {
		return host(header, key, func(r *Row) any { return v(at(r)) }, func(r *Row) string { return fmtNs(v(at(r))) })
	}
	speedup := func(r *Row) float64 {
		if at(r).HotNs <= 0 {
			return 0
		}
		return float64(at(r).ColdNs) / float64(at(r).HotNs)
	}
	return &Sweep{
		Name:     "delegate-read",
		Help:     "sweep the delegated read path alone (access pattern x server cache x collective reads)",
		After:    "delegate",
		Params:   g,
		Validate: g.validate,
		Points: func(bool) []any {
			return grid3(g.Patterns, g.CacheBlocks, g.Collective, func(pattern string, cache int, coll bool) any {
				return delegateReadPoint{Pattern: pattern, CacheBlocks: cache, Collective: coll}
			})
		},
		Env: g.env,
		// Write only, write + one pass, write + two passes: each run in its
		// own environment. The row carries the last run's counters.
		Run: func(env *Env, pt any) ([]Row, error) {
			p := pt.(delegateReadPoint)
			var runs [3]PhaseResult
			for passes := range runs {
				if passes > 0 {
					var err error
					if env, err = env.Fresh(); err != nil {
						return nil, err
					}
				}
				cfg := g.tierConfig(g.Servers)
				cfg.ServerCacheBlocks, cfg.ReadQuantum, cfg.TCIO.CollectiveRead = p.CacheBlocks, g.ReadQuantum, p.Collective
				runs[passes] = g.runTier(env, cfg, tierProgram{Files: 1, ReqSize: g.ReqSize,
					Write: true, Read: true, Passes: passes, Shared: p.Pattern == PatternShared})
				if runs[passes].Failed {
					return []Row{{Point: p, PhaseResult: PhaseResult{Failed: true, FailReason: runs[passes].FailReason}}}, nil
				}
			}
			base, cold, hot := runs[0], runs[1], runs[2]
			p.ColdNs, p.HotNs = int64(cold.Time-base.Time), int64(hot.Time-cold.Time)
			p.FSReadsCold, p.FSReadsHot = cold.Servers.FSReads, hot.Servers.FSReads-cold.Servers.FSReads
			return []Row{{Point: p, PhaseResult: hot}}, nil
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("Delegated reads: %d clients, %d server(s), %d B simulated requests, DRR quantum %d B",
				g.Procs, g.Servers, g.ReqSize*g.Scale, g.ReadQuantum*g.Scale),
			Columns: []Column{
				det("pattern", "pattern", func(r *Row) any { return at(r).Pattern }),
				det("cache", "cache_blocks", func(r *Row) any { return at(r).CacheBlocks }),
				det("coll", "collective", func(r *Row) any { return at(r).Collective }),
				ns("cold", "cold_ns", func(p delegateReadPoint) int64 { return p.ColdNs }),
				ns("hot", "hot_ns", func(p delegateReadPoint) int64 { return p.HotNs }),
				host("speedup", "speedup", func(r *Row) any { return speedup(r) },
					func(r *Row) string { return fmt.Sprintf("%.1fx", speedup(r)) }),
				det("read-reqs", "read_reqs", func(r *Row) any { return r.Client.ReadReqs }),
				det("fs-cold", "fs_reads_cold", func(r *Row) any { return at(r).FSReadsCold }),
				det("fs-hot", "fs_reads_hot", func(r *Row) any { return at(r).FSReadsHot }),
				det("hits", "cache_hits", func(r *Row) any { return r.Servers.CacheHits }),
				det("misses", "cache_misses", func(r *Row) any { return r.Servers.CacheMisses }),
				colResult,
			},
		}),
	}
}

// fmtNs renders a virtual-nanosecond count compactly.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}

package bench

// This file declares the I/O delegation sweep: a strided small-write
// workload run through internal/delegate while the server count, the
// number of concurrently open files, and the request size vary.
//
// The workload deals request-size blocks of each file round-robin to the
// client ranks, so every client's stream is maximally strided — the
// pattern the delegation tier exists for. Each cell runs the same
// application work (same clients, same bytes) and only moves where the
// aggregation happens:
//
//   - servers = 0 is the pass-through baseline: the tier dissolves and
//     every rank writes through tcio directly, so the file system sees
//     tcio's per-owner segment drains.
//
//   - servers > 0 withdraws that many extra ranks as dedicated I/O
//     servers. Clients ship domain-sized pieces over the request
//     protocol; each server stages them and drains one coalesced batch
//     per flush epoch. The staged/runs columns are the aggregation
//     factor: thousands of staged client writes reaching the file system
//     as a handful of long extent runs.
//
// Bytes are verified on read-back through the same tier configuration at
// every setting; delegation may not change a single byte.

import (
	"fmt"

	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// tierConfig builds the delegation tier's configuration for a server count.
func (g *segGeometry) tierConfig(servers int) delegate.Config {
	return delegate.Config{
		ServerRanks: servers,
		TCIO: tcio.Config{
			SegmentSize:    g.SegSize,
			NumSegments:    g.SegsPerRank,
			DemandPopulate: true,
		},
	}
}

// delegateGeometry configures the delegation sweep.
type delegateGeometry struct {
	segGeometry
	Servers  []int   // server-rank counts swept (0 = pass-through)
	Files    []int   // concurrently-open file counts swept
	ReqSizes []int64 // real client request sizes swept
}

// defaultDelegate sweeps 0/1/2 servers against 1 and 2 open files and
// 256 B / 2 KiB (real) requests, over 8 client ranks and 16 KiB (real)
// segments.
func defaultDelegate() *delegateGeometry {
	return &delegateGeometry{
		segGeometry: segGeometry{Procs: 8, SegSize: 16 << 10, SegsPerRank: 4, Scale: 16},
		Servers:     []int{0, 1, 2},
		Files:       []int{1, 2},
		ReqSizes:    []int64{256, 2 << 10},
	}
}

// delegatePoint is one (servers, files, request size) cell. ReqSize is in
// real bytes.
type delegatePoint struct {
	Servers, Files int
	ReqSize        int64
}

// delegateByte is the workload's deterministic content generator; the
// file index is mixed in so cross-file bleed cannot verify.
func delegateByte(fi int, off int64) byte {
	x := uint64(off)*0x9E3779B97F4A7C15 + uint64(fi+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return byte(x * 0xD1342543DE82EF95 >> 56)
}

// tierProgram is one world of the strided workload: request-size blocks
// of every file are dealt round-robin to the clients.
type tierProgram struct {
	Files   int
	ReqSize int64
	// Write makes every client write its blocks of every file, flush, and
	// close.
	Write bool
	// Read makes every client then reopen the files and read Passes times
	// — its own blocks, or with Shared every block — verifying the last
	// pass against the generator.
	Read   bool
	Passes int
	Shared bool
}

// runTier executes the program under cfg. The result totals the clients'
// file counters (pass-through: and their tcio counters) and the servers'.
func (g *segGeometry) runTier(env *Env, cfg delegate.Config, p tierProgram) PhaseResult {
	env.FS.Reset()
	fileBytes := g.fileBytes()
	var written int64
	if p.Write {
		written = fileBytes * int64(p.Files) * g.Scale
	}
	col := &delegate.Collector{}
	cfg.Collect = col
	pr := env.Run(g.Procs+cfg.ServerRanks, written, func(c *mpi.Comm, t *Tally) error {
		return delegate.Run(c, cfg, func(tr *delegate.Tier) error {
			// session opens every file, runs body over them, and closes.
			session := func(mode tcio.Mode, body func([]*delegate.File) error) error {
				handles := make([]*delegate.File, p.Files)
				for fi := range handles {
					f, err := tr.Open(delegateFileName(fi), mode)
					if err != nil {
						return err
					}
					handles[fi] = f
				}
				if err := body(handles); err != nil {
					return err
				}
				for _, f := range handles {
					if err := f.Close(); err != nil {
						return err
					}
					t.Client(f.Stats())
					if !tr.IsDelegated() {
						t.TCIO(f.TCIO().Stats())
					}
				}
				return nil
			}
			own, stride := int64(tr.ClientIndex())*p.ReqSize, p.ReqSize*int64(g.Procs)
			if p.Write {
				if err := session(tcio.WriteMode, func(handles []*delegate.File) error {
					buf := make([]byte, p.ReqSize)
					for fi, f := range handles {
						for off := own; off < fileBytes; off += stride {
							for i := range buf {
								buf[i] = delegateByte(fi, off+int64(i))
							}
							if err := f.WriteAt(off, buf); err != nil {
								return err
							}
						}
					}
					for _, f := range handles {
						if err := f.Flush(); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return err
				}
			}
			if !p.Read {
				return nil
			}
			first, step := own, stride
			if p.Shared {
				first, step = 0, p.ReqSize
			}
			return session(tcio.ReadMode, func(handles []*delegate.File) error {
				for pass := 0; pass < p.Passes; pass++ {
					// Issue every read first: pass-through reads are lazy
					// until Fetch, delegation reads fill synchronously unless
					// collective, where the one Fetch per pass closes the
					// read-intent epoch.
					type block struct {
						fi  int
						off int64
						dst []byte
					}
					var blocks []block
					for fi, f := range handles {
						for off := first; off < fileBytes; off += step {
							dst := make([]byte, p.ReqSize)
							if err := f.ReadAt(off, dst); err != nil {
								return err
							}
							blocks = append(blocks, block{fi, off, dst})
						}
					}
					for _, f := range handles {
						if err := f.Fetch(); err != nil {
							return err
						}
					}
					if pass < p.Passes-1 {
						continue
					}
					for _, b := range blocks {
						want := func(off int64) byte { return delegateByte(b.fi, off) }
						if err := checkBytes(c.Rank(), b.off, b.dst, want); err != nil {
							return fmt.Errorf("file %d: %w", b.fi, err)
						}
					}
				}
				return nil
			})
		})
	})
	pr.Servers = serverTotals(col)
	return pr
}

func delegateFileName(fi int) string { return fmt.Sprintf("delegate-%d.dat", fi) }

// validate checks the sweep's alignment preconditions.
func (g *delegateGeometry) validate() error {
	for _, s := range g.Servers {
		if s < 0 {
			return fmt.Errorf("bench: %d server ranks", s)
		}
	}
	for _, n := range g.Files {
		if n < 1 {
			return fmt.Errorf("bench: %d files", n)
		}
	}
	return g.segGeometry.validate(g.ReqSizes...)
}

// delegateSweep runs every (servers, files, request size) cell in a fresh
// environment, write phase plus verified read-back.
//
// The projection is a reduced grid at the first request size. Request
// arrival order at a server races, but the staged-record set, the sorted
// epoch drain, and hence every fault roll the drain keys are pure functions
// of the program; credit stalls are deliberately absent (whether a grant
// beats the next write is a scheduling fact). Its injection count is the
// write run's alone: in the verifying read-back pass-through clients
// demand-populate shared segments, so which rank populates what — and
// hence the read phase's fault rolls — is a scheduling fact.
func delegateSweep(g *delegateGeometry) *Sweep {
	at := func(r *Row) delegatePoint { return r.Point.(delegatePoint) }
	// Server counters print as "-" in the pass-through cells, which have no
	// servers.
	server := func(header, key string, v func(*Row) int64) Column {
		return Column{Header: header, Key: key, Det: true,
			Value: func(r *Row) any { return v(r) },
			Cell: func(r *Row) string {
				if at(r).Servers == 0 {
					return "-"
				}
				return fmt.Sprint(v(r))
			}}
	}
	servers := det("servers", "servers", func(r *Row) any { return at(r).Servers })
	files := det("files", "files", func(r *Row) any { return at(r).Files })
	// Protocol write requests; for pass-through the application's write
	// calls, the request-count baseline the protocol's domain pieces
	// compare against.
	writeReqs := det("write-reqs", "write_reqs", func(r *Row) any {
		if at(r).Servers == 0 {
			return r.Client.Writes
		}
		return r.Client.WriteReqs
	})
	staged := server("staged", "staged_writes", func(r *Row) int64 { return r.Servers.StagedWrites })
	runs := server("runs", "batched_runs", func(r *Row) int64 { return r.Servers.BatchedRuns })
	return &Sweep{
		Name:     "delegate",
		Help:     "sweep the I/O delegation tier (server ranks x open files x request size), plus the delegated read sweep",
		InAll:    true,
		Params:   g,
		Validate: g.validate,
		Points: func(chaos bool) []any {
			if chaos {
				req := g.ReqSizes[0]
				return []any{delegatePoint{0, 1, req}, delegatePoint{1, 1, req}, delegatePoint{2, 2, req}}
			}
			return grid3(g.Servers, g.Files, g.ReqSizes,
				func(s, f int, req int64) any { return delegatePoint{s, f, req} })
		},
		Env: g.env,
		// The write phase, then a read-back through the same tier
		// configuration that checks each byte each client wrote.
		Run: func(env *Env, pt any) ([]Row, error) {
			p := pt.(delegatePoint)
			cfg := g.tierConfig(p.Servers)
			row := Row{Point: p, PhaseResult: g.runTier(env, cfg, tierProgram{Files: p.Files, ReqSize: p.ReqSize, Write: true})}
			if !row.Failed {
				if v := g.runTier(env, cfg, tierProgram{Files: p.Files, ReqSize: p.ReqSize, Read: true, Passes: 1}); v.Failed {
					row.Result = "verify: " + v.FailReason
				}
			}
			return []Row{row}, nil
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("I/O delegation: strided writes, %d clients, %d B simulated segments",
				g.Procs, g.SegSize*g.Scale),
			Columns: []Column{
				servers, files,
				det("req-size", "req_size", func(r *Row) any { return at(r).ReqSize * g.Scale }),
				colTime, colMBs, writeReqs, staged, runs, colFSWrites,
				host("stalls", "credit_stalls", func(r *Row) any { return r.Client.CreditStalls }, nil),
				colResult,
			},
		}),
		Projection: &Table{
			Title:   fmt.Sprintf("I/O delegation chaos: %d clients", g.Procs),
			Columns: []Column{servers, files, colInjected, colRetries, writeReqs, staged, runs, colFSWrites, colResult},
		},
		JSON: []Column{det("procs", "procs", func(r *Row) any { return g.Procs + at(r).Servers })},
	}
}

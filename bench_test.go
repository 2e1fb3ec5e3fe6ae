// Package tcio_test holds the repository-level benchmark suite: one
// testing.B benchmark per table and figure of the paper, plus ablations of
// the design choices DESIGN.md calls out. These run miniature versions of
// the experiments (few ranks, small arrays) so `go test -bench=.` finishes
// quickly; cmd/tciobench and cmd/artbench regenerate the full-scale curves.
//
// Every benchmark reports the simulated aggregate throughput as the custom
// metric "simMB/s" — the quantity on the paper's y-axes. Wall-clock ns/op
// measures the simulator itself, not the modelled system.
package tcio_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/bench"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/stats"
	"github.com/tcio/tcio/internal/tcio"
)

// syntheticPoint runs one (method, procs) point of the synthetic benchmark
// and reports simulated throughput.
func syntheticPoint(b *testing.B, method bench.Method, procs, lenReal int, scale int64, mutate func(*bench.SyntheticConfig)) (write, read float64) {
	b.Helper()
	var wSum, rSum float64
	for i := 0; i < b.N; i++ {
		env, err := bench.NewEnv(scale)
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.SyntheticConfig{
			Method:     method,
			Procs:      procs,
			TypeArray:  []datatype.Type{datatype.Int, datatype.Double},
			LenArray:   lenReal,
			SizeAccess: 1,
			Verify:     true,
			FileName:   fmt.Sprintf("bench-%v-%d", method, procs),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := bench.RunSynthetic(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Write.Failed || res.Read.Failed {
			b.Fatalf("point failed: %s %s", res.Write.FailReason, res.Read.FailReason)
		}
		wSum += res.Write.MBs
		rSum += res.Read.MBs
	}
	return wSum / float64(b.N), rSum / float64(b.N)
}

// BenchmarkTable1Params regenerates Table I (parameter definitions).
func BenchmarkTable1Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bench.Table1().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3LinesOfCode regenerates Table III's programming-effort
// comparison from the embedded Program 2/3 sources.
func BenchmarkTable3LinesOfCode(b *testing.B) {
	var loc2, loc3 int
	for i := 0; i < b.N; i++ {
		loc2, loc3 = bench.ProgramLines()
		if loc3 >= loc2 {
			b.Fatal("TCIO program not shorter")
		}
	}
	b.ReportMetric(float64(loc2), "ocioLoC")
	b.ReportMetric(float64(loc3), "tcioLoC")
}

// BenchmarkFig5Write measures the write side of Figure 5 at a reduced
// process count for both methods.
func BenchmarkFig5Write(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			w, _ := syntheticPoint(b, m, 16, 1024, 256, nil)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig5Read measures the read side of Figure 5.
func BenchmarkFig5Read(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			_, r := syntheticPoint(b, m, 16, 1024, 256, nil)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// BenchmarkFig6 measures write throughput vs file size (one mid-size point
// per method); the OOM reproduction at the 48 GB point is covered by the
// bench package's tests.
func BenchmarkFig6(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			w, _ := syntheticPoint(b, m, 12, 1024, 1024, nil)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig7 measures read throughput vs file size.
func BenchmarkFig7(b *testing.B) {
	for _, m := range []bench.Method{bench.MethodTCIO, bench.MethodOCIO} {
		b.Run(m.String(), func(b *testing.B) {
			_, r := syntheticPoint(b, m, 12, 1024, 1024, nil)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// artPoint runs one (library, procs) ART checkpoint/restart point.
func artPoint(b *testing.B, lib bench.Method, procs int) (write, read float64) {
	b.Helper()
	sweep := bench.ART(&bench.ARTGeometry{
		Procs:      []int{procs},
		Trees:      64,
		Vars:       2,
		MuCells:    256,
		SigmaCells: 32,
		Seed:       art.TableIV.Seed,
		Scale:      1,
	})
	var wSum, rSum float64
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(sweep, bench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Rows {
			m := r.Point.(bench.FigPoint).Method
			if r.Result != "ok" {
				b.Fatalf("%v failed: %s", m, r.Result)
			}
			if m == lib {
				wSum += r.MBs
				rSum += r.Read.MBs
			}
		}
	}
	return wSum / float64(b.N), rSum / float64(b.N)
}

// BenchmarkFig9 measures ART checkpoint write throughput, TCIO vs vanilla.
func BenchmarkFig9(b *testing.B) {
	for _, lib := range []bench.Method{bench.MethodTCIO, bench.MethodVanilla} {
		b.Run(lib.String(), func(b *testing.B) {
			w, _ := artPoint(b, lib, 8)
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkFig10 measures ART restart read throughput.
func BenchmarkFig10(b *testing.B) {
	for _, lib := range []bench.Method{bench.MethodTCIO, bench.MethodVanilla} {
		b.Run(lib.String(), func(b *testing.B) {
			_, r := artPoint(b, lib, 8)
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// BenchmarkTable4Segments regenerates the Table IV distribution and checks
// its statistics.
func BenchmarkTable4Segments(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sizes := art.SegmentSizes(art.TableIV.Segments, art.TableIV.Mu, art.TableIV.Sigma, art.TableIV.Seed)
		var s stats.Sample
		for _, v := range sizes {
			s.Add(float64(v))
		}
		mean = s.Mean()
	}
	b.ReportMetric(mean, "meanCells")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationLevel1 compares TCIO with and without the level-1
// coalescing buffer: without it, every piece is its own one-sided transfer.
func BenchmarkAblationLevel1(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "coalesced"
		if disable {
			name = "perPiece"
		}
		b.Run(name, func(b *testing.B) {
			w, _ := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.Level1Disabled = disable
			})
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkAblationSegmentSize varies the level-2 segment size around the
// file system stripe size — §IV.A argues the stripe (lock granularity) is
// the right choice.
func BenchmarkAblationSegmentSize(b *testing.B) {
	for _, frac := range []struct {
		name string
		mul  float64
	}{{"quarterStripe", 0.25}, {"stripe", 1}, {"fourStripes", 4}} {
		b.Run(frac.name, func(b *testing.B) {
			w, _ := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.SegmentSizeMultiplier = frac.mul
			})
			b.ReportMetric(w, "simMB/s")
		})
	}
}

// BenchmarkAblationPopulate compares read-side segment population at Open
// (owners read their own segments) against demand population under the
// exclusive window lock.
func BenchmarkAblationPopulate(b *testing.B) {
	for _, demand := range []bool{false, true} {
		name := "preload"
		if demand {
			name = "demand"
		}
		b.Run(name, func(b *testing.B) {
			_, r := syntheticPoint(b, bench.MethodTCIO, 16, 1024, 256, func(cfg *bench.SyntheticConfig) {
				cfg.DemandPopulate = demand
			})
			b.ReportMetric(r, "simMB/s")
		})
	}
}

// --- Run-list hot path (results/design-history.md, "View cursor / run-list hot path") ---

// benchSink keeps the measured calls' results live.
var benchSink int

// BenchmarkViewRuns measures the view cursor that every mpiio call flattens
// through. Under the default byte view the cost must be flat in the request
// size (the per-byte flatten it replaced was linear: one Segment per byte);
// under the Fig. 5 view — one 12-byte block every 512 blocks — it is
// proportional to the runs returned.
func BenchmarkViewRuns(b *testing.B) {
	block, err := datatype.Contiguous(12, datatype.Byte)
	if err != nil {
		b.Fatal(err)
	}
	fig5, err := datatype.Vector(1024, 1, 512, block)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		ft   datatype.Type
		n    int64
	}{
		{"byte-64B", datatype.Byte, 64},
		{"byte-2KiB", datatype.Byte, 2 << 10},
		{"byte-64KiB", datatype.Byte, 64 << 10},
		{"fig5-vector", fig5, 1024 * 12},
	} {
		b.Run(bc.name, func(b *testing.B) {
			v, err := datatype.NewView(0, bc.ft)
			if err != nil {
				b.Fatal(err)
			}
			var scratch []datatype.Segment
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch = v.Runs(scratch[:0], int64(i%7)*bc.n, bc.n)
			}
			benchSink += len(scratch)
		})
	}
}

// BenchmarkCoalesce measures extent.Coalesce — the shared tail of view
// flattening and of tcio's level-1 flush and dirty-run bookkeeping — on
// 1024 runs that merge in pairs, arriving sorted and shuffled.
func BenchmarkCoalesce(b *testing.B) {
	sorted := make([]extent.Extent, 1024)
	for i := range sorted {
		sorted[i] = extent.Extent{Off: int64(i/2)*1024 + int64(i%2)*256, Len: 256}
	}
	shuffled := append([]extent.Extent(nil), sorted...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, bc := range []struct {
		name string
		in   []extent.Extent
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			scratch := make([]extent.Extent, len(bc.in))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(scratch, bc.in)
				benchSink += len(extent.Coalesce(scratch))
			}
		})
	}
}

// --- Two-sided exchange hot path (results/design-history.md) ---

// BenchmarkTransferBurst measures one netsim.Transfer joining a burst that
// holds both of its ports depth windows deep — the state OCIO's all-to-all
// puts every NIC in (synth-ocio peaks at 5999). The cost must be near-flat
// in the depth; the per-call scan of open windows it replaced was linear.
func BenchmarkTransferBurst(b *testing.B) {
	for _, depth := range []int{64, 1024, 6000} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			cfg := netsim.DefaultConfig()
			net := netsim.New(2, cfg)
			// One departure per nanosecond, each on the wire for depth
			// nanoseconds, keeps depth windows open on both ports.
			size := int64(float64(depth) * cfg.NICBandwidth / float64(simtime.Second))
			depart := simtime.Time(0)
			transfer := func() {
				depart++
				benchSink = int(net.Transfer(0, 1, size, depart, netsim.TwoSided))
			}
			for i := 0; i < 2*depth; i++ {
				transfer()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transfer()
			}
			b.ReportMetric(float64(net.Stats().PeakOverlap), "depth")
		})
	}
}

// BenchmarkAlltoallv measures one whole all-to-all exchange — p*p messages
// of 64 bytes, the size of a synth-ocio piece — across p ranks on 12-core
// nodes, through both entry points: Alltoallv stages every message in its
// own pool buffer, which the receiver recycles; AlltoallvFlat (the -flat
// legs, the path mpiio takes) is handed one send buffer per exchange.
func BenchmarkAlltoallv(b *testing.B) {
	perMessage := func(c *mpi.Comm, p int) func() error {
		send := make([][]byte, p)
		for dst := range send {
			send[dst] = make([]byte, 64)
		}
		return func() error {
			recv, err := c.Alltoallv(send)
			for _, buf := range recv {
				c.Recycle(buf)
			}
			return err
		}
	}
	flat := func(c *mpi.Comm, p int) func() error {
		displs, recv := make([]int, p+1), make([][]byte, p)
		for dst := range displs {
			displs[dst] = 64 * dst
		}
		return func() error { return c.AlltoallvFlat(make([]byte, 64*p), displs, recv) }
	}
	for _, p := range []int{64, 512} {
		for _, leg := range []struct {
			suffix string
			entry  func(*mpi.Comm, int) func() error
		}{{"", perMessage}, {"-flat", flat}} {
			b.Run(fmt.Sprintf("p-%d%s", p, leg.suffix), func(b *testing.B) {
				b.ReportAllocs()
				_, err := mpi.Run(mpi.Config{Procs: p}, func(c *mpi.Comm) error {
					exchange := leg.entry(c, p)
					for i := 0; i < b.N; i++ {
						if err := exchange(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p*p), "ns/msg")
			})
		}
	}
}

// BenchmarkOCIOExchange measures one two-phase round trip as synth-ocio
// runs it: a fresh world of p ranks, every rank an aggregator, 1024 12-byte
// blocks per rank interleaved rank by rank (Fig. 5's piece size), one
// WriteAll and one ReadAll through fresh handles. B/op and allocs/op are the
// host cost of the exchange machinery per round trip.
func BenchmarkOCIOExchange(b *testing.B) {
	const blocks, block = 1024, 12
	for _, p := range []int{64, 512} {
		b.Run(fmt.Sprintf("p-%d", p), func(b *testing.B) {
			b.ReportAllocs()
			open := func(c *mpi.Comm) (*mpiio.File, error) {
				f, err := mpiio.Open(c, "bench-ocio")
				if err != nil {
					return nil, err
				}
				etype, err := datatype.Contiguous(block, datatype.Byte)
				if err != nil {
					return nil, err
				}
				ftype, err := datatype.Vector(blocks, 1, p, etype)
				if err != nil {
					return nil, err
				}
				return f, f.SetView(int64(c.Rank())*block, etype, ftype)
			}
			for i := 0; i < b.N; i++ {
				_, err := mpi.Run(mpi.Config{Procs: p}, func(c *mpi.Comm) error {
					w, err := open(c)
					if err != nil {
						return err
					}
					if err := w.WriteAll(make([]byte, blocks*block)); err != nil {
						return err
					}
					r, err := open(c)
					if err != nil {
						return err
					}
					_, err = r.ReadAll(blocks * block)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- One-sided ship/fetch hot path (results/design-history.md) ---

// hotPathRanks and hotPathCfg shape the two benchmarks below: three
// Lonestar nodes, so most one-sided operations cross the NIC, and four
// times as many owners as the pipeline depth, so ships keep evicting epochs.
const hotPathRanks = 32

var hotPathCfg = tcio.Config{SegmentSize: 4096, NumSegments: 8}

// BenchmarkShip measures one level-1 flush and ship from rank 0: an
// untraced lock/put/unlock epoch whose indexed put carries runs blocks,
// into a segment earlier ships already made dirty. One op is the runs
// WriteAt calls that fill the level-1 buffer plus the ship that empties it;
// the other ranks wait in Close.
func BenchmarkShip(b *testing.B) {
	for _, runs := range []int{1, 16} {
		b.Run(fmt.Sprintf("runs-%d", runs), func(b *testing.B) {
			b.ReportAllocs()
			_, err := mpi.Run(mpi.Config{Procs: hotPathRanks}, func(c *mpi.Comm) error {
				f, err := tcio.Open(c, "bench-ship", tcio.WriteMode, hotPathCfg)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					piece := make([]byte, 8)
					fill := func(i int) error { // segment i%64, every other 8 bytes
						for r := 0; r < runs; r++ {
							if err := f.WriteAt(int64(i%64)*4096+int64(r)*16, piece); err != nil {
								return err
							}
						}
						return nil
					}
					for i := 0; i < 128; i++ {
						if err := fill(i); err != nil {
							return err
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := fill(i); err != nil {
							return err
						}
					}
					b.StopTimer()
				}
				return f.Close()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkFetchBatch measures one lazy-read batch on rank 0: two ReadAt
// calls in each of segs populated segments, then the Fetch that groups
// them, locks the owners, issues one indexed get per segment and scatters.
func BenchmarkFetchBatch(b *testing.B) {
	for _, segs := range []int{1, 64} {
		b.Run(fmt.Sprintf("segs-%d", segs), func(b *testing.B) {
			b.ReportAllocs()
			_, err := mpi.Run(mpi.Config{Procs: hotPathRanks}, func(c *mpi.Comm) error {
				w, err := tcio.Open(c, "bench-fetch", tcio.WriteMode, hotPathCfg)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					if err := w.WriteAt(0, make([]byte, 64*4096)); err != nil {
						return err
					}
				}
				if err := w.Close(); err != nil {
					return err
				}
				f, err := tcio.Open(c, "bench-fetch", tcio.ReadMode, hotPathCfg)
				if err != nil {
					return err
				}
				if c.Rank() == 0 {
					dst := make([]byte, 16)
					batch := func() error {
						for s := 0; s < segs; s++ {
							for half := 0; half < 2; half++ {
								if err := f.ReadAt(int64(s*4096+half*2048), dst[half*8:half*8+8]); err != nil {
									return err
								}
							}
						}
						return f.Fetch()
					}
					if err := batch(); err != nil {
						return err
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := batch(); err != nil {
							return err
						}
					}
					b.StopTimer()
				}
				return f.Close()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- ART record path (results/design-history.md, "ART record path and buffer ownership") ---

// BenchmarkARTCodec measures the three things the ART workloads do to a
// tree on the host — build it, serialize it, rebuild it from its record —
// over one size table from a lone root cell to eight Table IV trees' worth.
// MB/s is per record byte; allocs/op is what the record path is held to:
// a constant per tree for encode and decode, one per level for generate.
func BenchmarkARTCodec(b *testing.B) {
	for _, cells := range []int{1, 256, 2048, 16384} {
		tree := art.Generate(0, cells, 2, art.TreeRNG(art.TableIV.Seed, 0))
		rec := tree.Encode()
		for _, op := range []struct {
			name string
			run  func() int
		}{
			{"encode", func() int { return len(tree.Encode()) }},
			{"decode", func() int {
				t, err := art.Decode(rec)
				if err != nil {
					b.Fatal(err)
				}
				return t.Vars
			}},
			{"generate", func() int {
				return art.Generate(0, cells, 2, art.TreeRNG(art.TableIV.Seed, 0)).Vars
			}},
		} {
			b.Run(fmt.Sprintf("%s/cells-%d", op.name, cells), func(b *testing.B) {
				b.SetBytes(tree.EncodedSize())
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink += op.run()
				}
			})
		}
	}
}

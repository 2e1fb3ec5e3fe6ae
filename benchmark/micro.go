package main

// Micro-benchmarks: direct timed drives of single layers' public
// functions through testing.Benchmark. They do not depend on the workload,
// so they run once per invocation, only with -trace 1, and stay cheap
// (about a second together). Their job is to say which layer's unit cost
// moved when an end-to-end host number does.

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
	"github.com/tcio/tcio/internal/wal"
)

// microBenchtime bounds each micro-benchmark's timed loop: together they
// must stay a small part of a run.
const microBenchtime = "40ms"

// micros runs benchmark bodies and keeps the first error any of them hit.
type micros struct{ err error }

// nsPerOp runs fn under testing.Benchmark and returns host ns per b.N unit.
func (mi *micros) nsPerOp(fn func(b *testing.B) error) float64 {
	r := testing.Benchmark(func(b *testing.B) {
		if err := fn(b); err != nil && mi.err == nil {
			mi.err = err
		}
	})
	return ratio(float64(r.T.Nanoseconds()), float64(r.N))
}

// inWorld runs body on procs ranks with the timer covering rank 0's loop
// only (world spawn and teardown excluded).
func inWorld(b *testing.B, procs int, body func(c *mpi.Comm) error) error {
	_, err := mpi.Run(mpi.Config{Procs: procs}, func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		err := body(c)
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return err
	})
	return err
}

// vclock is a storage.Clock for driving the storage layer without a world.
type vclock struct{ now simtime.Time }

func (v *vclock) Now() simtime.Time { return v.now }
func (v *vclock) AdvanceTo(t simtime.Time) {
	if t > v.now {
		v.now = t
	}
}

// microSink keeps results alive so the compiler cannot drop the calls.
var microSink int

// runMicros runs every micro-benchmark once, each for benchtime (a
// -test.benchtime value), and emits its metric.
func runMicros(m *layerSet, benchtime string) error {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return err
	}
	runtime.GC()
	var mi micros

	const barrierRanks, a2aRanks = 64, 16
	m.set("mpi.pingpong_host_ns", mi.nsPerOp(func(b *testing.B) error {
		return inWorld(b, 2, func(c *mpi.Comm) error {
			msg := make([]byte, 64)
			for i := 0; i < b.N; i++ {
				if c.Rank() == 0 {
					if err := c.Send(1, 0, msg); err != nil {
						return err
					}
				}
				data, err := c.Recv(1-c.Rank(), 0)
				if err != nil {
					return err
				}
				c.Recycle(data)
				if c.Rank() == 1 {
					if err := c.Send(0, 0, msg); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}))
	m.set("mpi.barrier_host_ns_per_rank", mi.nsPerOp(func(b *testing.B) error {
		return inWorld(b, barrierRanks, func(c *mpi.Comm) error {
			for i := 0; i < b.N; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})/barrierRanks)
	// One exclusive lock/put/unlock epoch on a remote window.
	m.set("mpi.put_host_ns", mi.nsPerOp(func(b *testing.B) error {
		return inWorld(b, 2, func(c *mpi.Comm) error {
			win, err := c.WinCreate(make([]byte, 4096))
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				data := make([]byte, 256)
				for i := 0; i < b.N; i++ {
					if err := win.Lock(1, true); err != nil {
						return err
					}
					if err := win.Put(1, 0, data); err != nil {
						return err
					}
					if err := win.Unlock(1); err != nil {
						return err
					}
				}
			}
			return c.Barrier()
		})
	}))
	m.set("mpi.alltoallv_host_us", mi.nsPerOp(func(b *testing.B) error {
		return inWorld(b, a2aRanks, func(c *mpi.Comm) error {
			send := make([][]byte, a2aRanks)
			for i := range send {
				send[i] = make([]byte, 64)
			}
			for i := 0; i < b.N; i++ {
				recv, err := c.Alltoallv(send)
				if err != nil {
					return err
				}
				for _, r := range recv {
					c.Recycle(r)
				}
			}
			return nil
		})
	})/1e3)

	// One stripe-sized request per op, cycling over 64 stripes so the file
	// stays small. The virtual cost per request is read off the same loop.
	_, fs := newEnv(1)
	stripe := fs.Config().StripeSize
	block := make([]byte, stripe)
	var vt simtime.Duration
	var reqs int64
	m.set("pfs.write_host_ns_per_req", mi.nsPerOp(func(b *testing.B) error {
		fs.Reset()
		f := fs.Open("micro-pfs")
		now := simtime.Time(0)
		for i := 0; i < b.N; i++ {
			end, err := f.WriteAt(0, int64(i%64)*stripe, block, now)
			if err != nil {
				return err
			}
			vt += end.Sub(now)
			now = end
		}
		reqs += int64(b.N)
		return nil
	}))
	m.set("pfs.write_vt_us_per_req", ratio(float64(vt), float64(reqs))/1e3)

	const batch = 16
	m.set("storage.write_extents_host_ns_per_req", mi.nsPerOp(func(b *testing.B) error {
		fs.Reset()
		cl := storage.NewClient(fs.Open("micro-storage"), 0, 0, &vclock{})
		batchReqs := make([]storage.Request, batch)
		for i := range batchReqs {
			batchReqs[i] = storage.Request{Off: int64(i) * stripe, Data: block, Tag: "micro"}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.WriteExtents("micro", trace.KindDrain, batchReqs); err != nil {
				return err
			}
		}
		return nil
	})/batch)

	// The Fig. 5 file view: one 12-byte block every 512 blocks, 1024 times.
	etype, err := datatype.Contiguous(synthBlock, datatype.Byte)
	if err != nil {
		return err
	}
	view, err := datatype.Vector(1024, 1, 512, etype)
	if err != nil {
		return err
	}
	m.set("datatype.flatten_host_ns_per_seg", mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			microSink += len(datatype.Flatten(view, 1, 0))
		}
		return nil
	})/1024)

	// 1024 runs of 256 B in shuffled order, adjacent in pairs: Coalesce
	// sorts and halves them; SievePlan joins pairs under a 1 KiB budget.
	runs := make([]extent.Extent, 1024)
	for i := range runs {
		runs[i] = extent.Extent{Off: int64(i/2)*1024 + int64(i%2)*256, Len: 256}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	scratch := make([]extent.Extent, len(runs))
	m.set("extent.coalesce_host_ns_per_run", mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			copy(scratch, runs)
			microSink += len(extent.Coalesce(scratch))
		}
		return nil
	})/float64(len(runs)))
	m.set("extent.sieveplan_host_ns_per_run", mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			microSink += len(extent.SievePlan(runs, 1024))
		}
		return nil
	})/float64(len(runs)))

	tree := art.Generate(0, int(art.TableIV.Mu), artVars, art.TreeRNG(art.TableIV.Seed, 0))
	m.set("art.encode_host_ns_per_tree", mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			microSink += len(tree.Encode())
		}
		return nil
	}))

	// One epoch of 16 runs of 4 KiB, sealed by its commit marker.
	walRuns := make([]wal.Run, 16)
	var walBytes float64
	for i := range walRuns {
		walRuns[i] = wal.Run{Extent: extent.Extent{Off: int64(i) * 8192, Len: 4096}, Data: make([]byte, 4096)}
		walBytes += 4096
	}
	var img []byte
	walMBps := func(nsPerEpoch float64) float64 { return ratio(walBytes, nsPerEpoch) * 1e3 }
	m.set("wal.encode_MBps", walMBps(mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			img, _ = wal.EncodeEpochRecords(0, 1, walRuns)
			img = append(img, wal.EncodeCommit(1)...)
		}
		return nil
	})))
	m.set("wal.decode_MBps", walMBps(mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			epochs, err := wal.Decode(img)
			if err != nil || len(epochs) != 1 {
				return fmt.Errorf("wal.Decode: %d epochs, %v", len(epochs), err)
			}
		}
		return nil
	})))

	res := simtime.NewResource("micro")
	m.set("simtime.acquire_host_ns", mi.nsPerOp(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			res.Acquire(simtime.Time(i), 1)
		}
		return nil
	}))
	m.set("trace.record_host_ns", mi.nsPerOp(func(b *testing.B) error {
		rec := trace.New(0)
		for i := 0; i < b.N; i++ {
			rec.Record(trace.Event{Rank: i & 63, Start: simtime.Time(i), Kind: trace.KindWrite, Bytes: 12})
		}
		return nil
	}))
	return mi.err
}

package tcio

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"
	"time"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// The preload twins run every rank on one node, so a get is a memory copy no
// other transfer can slow, against a file system on which a 64-byte segment
// is 4 simulated MiB: a request's OST service outlasts its overhead, so the
// completions of one posted batch are distinct. Readahead is off, so no
// request is a window hit.

const preSeg = 64

func preByte(off int64) byte { return byte(off*7 + off>>6 + 3) }

// preFS returns a file system holding segs segments of preByte, stored
// host-side: no OST has served anything yet.
func preFS(segs int) *pfs.FileSystem { return storePre(preConfig(), segs) }

// preConfig is preFS's file system configuration.
func preConfig() pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.ByteScale, cfg.ReadAhead = (4<<20)/preSeg, 0
	return cfg
}

// stripedPreFS is preFS striped one segment per stripe over width OSTs, so
// consecutive segments sit on consecutive targets, with inj armed.
func stripedPreFS(segs, width int, inj *faults.Injector) *pfs.FileSystem {
	cfg := preConfig()
	cfg.StripeSize, cfg.StripeCount, cfg.Faults = preSeg, width, inj
	return storePre(cfg, segs)
}

// storePre stores segs segments of preByte in a file system built to cfg.
func storePre(cfg pfs.Config, segs int) *pfs.FileSystem {
	fs := pfs.New(cfg)
	img := make([]byte, segs*preSeg)
	for i := range img {
		img[i] = preByte(int64(i))
	}
	fs.Open("pre").StoreDirect(0, img)
	return fs
}

// getWire is what a get of n bytes takes from its issue to its arrival on
// an idle one-node world.
func getWire(t *testing.T, n int64) simtime.Duration {
	t.Helper()
	var wire simtime.Duration
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		win, err := c.WinCreate(make([]byte, n))
		if err != nil {
			return err
		}
		if err := win.Lock(0, false); err != nil {
			return err
		}
		h, err := win.GetSegmentsAsync(0, []extent.Extent{{Len: n}}, nil, 0)
		if err != nil {
			return err
		}
		issued := c.Now()
		h.Complete()
		wire = c.Now().Sub(issued)
		return win.Unlock(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// populationEvents reads every population request of a trace as each
// segment's completion and the set of departure instants.
func populationEvents(rec *trace.Recorder) (land map[int64]simtime.Time, starts map[simtime.Time]bool) {
	land, starts = make(map[int64]simtime.Time), make(map[simtime.Time]bool)
	for _, ev := range rec.Events() {
		var seg, off int64
		if ev.Kind != trace.KindPopulate {
			continue
		}
		if _, err := fmt.Sscanf(ev.Detail, "seg=%d off=%d", &seg, &off); err == nil {
			land[seg] = max(land[seg], ev.Start.Add(ev.Dur))
			starts[ev.Start] = true
		}
	}
	return land, starts
}

// fetchSegment lazily reads n bytes at the start of seg, fetches them and
// checks them against the file.
func fetchSegment(f *File, seg, n int64) error {
	dst := make([]byte, n)
	if err := f.ReadAt(seg*preSeg, dst); err != nil {
		return err
	}
	if err := f.Fetch(); err != nil {
		return err
	}
	for i, b := range dst {
		if want := preByte(seg*preSeg + int64(i)); b != want {
			return fmt.Errorf("segment %d byte %d is %#x, want %#x", seg, i, b, want)
		}
	}
	return nil
}

// TestPreloadGetLeavesWhenItsSegmentLands: Open posts the preload and
// returns before any of it lands, and a get leaves its owner when its own
// segment has landed, not when the batch has. One rank's batch is alone at
// the OST, so every landing is exact: a fetch of slot 0 leaves Fetch at slot
// 0's landing plus the get's transfer plus the unlock notification's latency,
// before the batch ends; a later fetch of the last slot at the last slot's
// landing plus the same.
func TestPreloadGetLeavesWhenItsSegmentLands(t *testing.T) {
	const segs = 4
	rec := &trace.Recorder{}
	lat := cluster.Lonestar().Net.Latency
	firstWire, lastWire := getWire(t, 16), getWire(t, preSeg)
	var land map[int64]simtime.Time
	var opened, leftFirst, leftLast simtime.Time
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: preFS(segs)}, func(c *mpi.Comm) error {
		f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: segs, Trace: rec})
		if err != nil {
			return err
		}
		opened = c.Now()
		land, _ = populationEvents(rec)
		for seg := int64(0); seg < segs; seg++ {
			if seg > 0 && land[seg] <= land[seg-1] {
				return fmt.Errorf("preload landings %v are not distinct and ordered as posted", land)
			}
			if got := f.meta.arrivalOf(seg); got != land[seg] {
				return fmt.Errorf("segment %d: recorded arrival %d, its request completed at %d", seg, got, land[seg])
			}
		}
		if err := fetchSegment(f, 0, 16); err != nil {
			return err
		}
		leftFirst = c.Now()
		if err := fetchSegment(f, segs-1, preSeg); err != nil {
			return err
		}
		leftLast = c.Now()
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(land) != segs {
		t.Fatalf("traced %d preload landings, want %d", len(land), segs)
	}
	if opened >= land[0] {
		t.Errorf("Open returned at %d, not before slot 0 landed at %d: it waited for the preload", opened, land[0])
	}
	if want := land[0].Add(firstWire).Add(lat); leftFirst != want {
		t.Errorf("the slot 0 fetch left at %d, want its landing %d + transfer %d + unlock latency %d", leftFirst, land[0], firstWire, lat)
	}
	if leftFirst >= land[segs-1] {
		t.Errorf("the slot 0 fetch left at %d, not before the batch ended at %d", leftFirst, land[segs-1])
	}
	if want := land[segs-1].Add(lastWire).Add(lat); leftLast != want {
		t.Errorf("the last slot's fetch left at %d, want its landing %d + transfer %d + unlock latency %d", leftLast, land[segs-1], lastWire, lat)
	}
}

// TestPreloadGetWaitsForItsOwnersSegment: with two ranks the batches share
// the OST in host order, so the test reads each owner's recorded landing
// instead of an absolute time. Each rank fetches the other owner's last
// slot and leaves Fetch at that slot's landing plus the transfer plus the
// unlock latency.
func TestPreloadGetWaitsForItsOwnersSegment(t *testing.T) {
	const procs, segs = 2, 4
	lat := cluster.Lonestar().Net.Latency
	wire := getWire(t, preSeg)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: preFS(segs)}, func(c *mpi.Comm) error {
		f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: segs / procs})
		if err != nil {
			return err
		}
		seg := int64(segs - 1 - c.Rank()) // the other owner's last slot
		ready, before := f.meta.arrivalOf(seg), c.Now()
		if ready <= before {
			return fmt.Errorf("rank %d: segment %d landed at %d, not after the fetch began at %d", c.Rank(), seg, ready, before)
		}
		if err := fetchSegment(f, seg, preSeg); err != nil {
			return err
		}
		if want := ready.Add(wire).Add(lat); c.Now() != want {
			return fmt.Errorf("rank %d: the fetch of segment %d left at %d, want its landing %d + transfer %d + unlock latency %d",
				c.Rank(), seg, c.Now(), ready, wire, lat)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadCloseWaitsForOwnPreload: a window cannot be freed while its
// posted reads are still landing in it, so a rank that records no read
// leaves Close no earlier than its own batch's completion.
func TestReadCloseWaitsForOwnPreload(t *testing.T) {
	const segs = 4
	rec := &trace.Recorder{}
	var closed simtime.Time
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: preFS(segs)}, func(c *mpi.Comm) error {
		f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: segs, Trace: rec})
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		closed = c.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var end simtime.Time
	land, _ := populationEvents(rec)
	for _, at := range land {
		end = max(end, at)
	}
	if end == 0 || closed < end {
		t.Errorf("Close returned at %d, before its preload finished landing at %d", closed, end)
	}
}

// TestDemandBatchIsOnePost: a demand fetch posts its batch's populations
// together — every request departs at one instant — and marks each segment
// populated at its own landing, the floor of the gets that follow. Close
// waits for the last landing.
func TestDemandBatchIsOnePost(t *testing.T) {
	const segs = 4
	rec := &trace.Recorder{}
	var land map[int64]simtime.Time
	var starts map[simtime.Time]bool
	var closed simtime.Time
	var st Stats
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: preFS(segs)}, func(c *mpi.Comm) error {
		f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: segs,
			DemandPopulate: true, Trace: rec})
		if err != nil {
			return err
		}
		dsts := make([][]byte, segs)
		for seg := range dsts {
			dsts[seg] = make([]byte, 16)
			if err := f.ReadAt(int64(seg)*preSeg+8, dsts[seg]); err != nil {
				return err
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		land, starts = populationEvents(rec)
		for seg, dst := range dsts {
			if got := f.meta.arrivalOf(int64(seg)); got != land[int64(seg)] {
				return fmt.Errorf("segment %d: recorded arrival %d, its read completed at %d", seg, got, land[int64(seg)])
			}
			for i, b := range dst {
				if want := preByte(int64(seg)*preSeg + 8 + int64(i)); b != want {
					return fmt.Errorf("segment %d byte %d is %#x, want %#x", seg, i, b, want)
				}
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
		closed, st = c.Now(), f.Stats()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(land) != segs || len(starts) != 1 {
		t.Fatalf("%d segments read at %d departure instants, want %d at one", len(land), len(starts), segs)
	}
	for seg, at := range land {
		if closed < at {
			t.Errorf("Close returned at %d, before segment %d landed at %d", closed, seg, at)
		}
	}
	if st.Populations != segs {
		t.Errorf("%d populations, want %d", st.Populations, segs)
	}
}

// TestContendedDemandPopulatesOnce: every rank demands every segment in one
// batch, even ranks walking the owners up and odd ranks down, under a seeded
// jitter at every touch of shared state. Whichever rank locks a segment's
// owner first posts its read and the others find it populated, so each
// segment is read from the file system exactly once and every byte is the
// file's. Every fetch takes its owners' locks in ascending rank order, so no
// two fetches wait on each other: a deadlock fails the deadline.
func TestContendedDemandPopulatesOnce(t *testing.T) {
	const procs, numSeg = 4, 2
	const segs = procs * numSeg
	defer mpi.SetTouchHook(nil)
	for seed := uint64(0); seed < 8; seed++ {
		mpi.SetTouchHook(func(rank int, site string, at simtime.Time) {
			if seed == 0 {
				return
			}
			h := fnv.New64a()
			fmt.Fprint(h, seed, rank, site, at)
			if v := h.Sum64(); v%2 == 0 {
				for n := v / 2 % 4; n > 0; n-- {
					runtime.Gosched()
				}
			} else if v%16 == 1 {
				time.Sleep(time.Duration(v/16%20) * time.Microsecond)
			}
		})
		pops := make([]int64, procs)
		var rep mpi.Report
		done := make(chan error, 1)
		go func() {
			var err error
			rep, err = mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: preFS(segs)}, func(c *mpi.Comm) error {
				f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: numSeg, DemandPopulate: true})
				if err != nil {
					return err
				}
				at := int64(c.Rank()) * 16
				dsts := make([][]byte, segs)
				for i := range dsts {
					seg := int64(i)
					if c.Rank()%2 == 1 {
						seg = segs - 1 - seg
					}
					dsts[seg] = make([]byte, 16)
					if err := f.ReadAt(seg*preSeg+at, dsts[seg]); err != nil {
						return err
					}
				}
				if err := f.Fetch(); err != nil {
					return err
				}
				for seg, dst := range dsts {
					for i, b := range dst {
						if want := preByte(int64(seg)*preSeg + at + int64(i)); b != want {
							return fmt.Errorf("rank %d segment %d byte %d is %#x, want %#x", c.Rank(), seg, i, b, want)
						}
					}
				}
				err = f.Close()
				pops[c.Rank()] = f.Stats().Populations
				return err
			})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("seed %d: the contended fetches hung", seed)
		}
		var sum int64
		for _, n := range pops {
			sum += n
		}
		if sum != segs || rep.FS.Reads != segs {
			t.Fatalf("seed %d: %d populations (%v) and %d file system reads, want %d of each",
				seed, sum, pops, rep.FS.Reads, segs)
		}
	}
}

// sequentialDemandRead has each rank read its contiguous 1/P of the striped
// file in 12-byte pieces, demand populated, and checks every byte once
// Close has landed them. It returns the world's report and the ranks'
// summed populations.
func sequentialDemandRead(t *testing.T, procs, segs int, inj *faults.Injector) (mpi.Report, int64) {
	t.Helper()
	const piece = 12
	pops := make([]int64, procs)
	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: stripedPreFS(segs, 7, inj), Faults: inj},
		func(c *mpi.Comm) error {
			f, err := Open(c, "pre", ReadMode, Config{SegmentSize: preSeg, NumSegments: segs / procs, DemandPopulate: true})
			if err != nil {
				return err
			}
			chunk := int64(segs / procs * preSeg)
			base := int64(c.Rank()) * chunk
			buf := make([]byte, chunk)
			for off := int64(0); off < chunk; off += piece {
				if err := f.ReadAt(base+off, buf[off:min(off+piece, chunk)]); err != nil {
					return err
				}
			}
			if err := f.Close(); err != nil {
				return err
			}
			pops[c.Rank()] = f.Stats().Populations
			for i, b := range buf {
				if want := preByte(base + int64(i)); b != want {
					return fmt.Errorf("rank %d offset %d is %#x, want %#x", c.Rank(), base+int64(i), b, want)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range pops {
		sum += n
	}
	return rep, sum
}

// TestSoloDemandReadTime pins one rank's sequential demand read over a
// seven-OST stripe to the nanosecond: with one rank the request stream is
// totally ordered, so the time is exact, and a change to what a posted
// population or a get charges moves it.
func TestSoloDemandReadTime(t *testing.T) {
	const segs = 48
	rep, pops := sequentialDemandRead(t, 1, segs, nil)
	if pops != segs || rep.FS.Reads != segs {
		t.Errorf("%d populations and %d file system reads, want %d of each", pops, rep.FS.Reads, segs)
	}
	if got := rep.MaxTime.Sub(0); got != soloDemandNs {
		t.Errorf("the one-rank demand read took %d ns, want %d", got, soloDemandNs)
	}
}

// soloDemandNs is TestSoloDemandReadTime's makespan in virtual ns.
const soloDemandNs = 4389163

// TestDemandPopulatesOnceUnderFaults: under seeded OST read errors and
// slowdowns, dropped connection setups and one-sided put drops, four ranks
// demand-read disjoint partitions of a seven-OST file. Every failed read is
// retried inside its population, so the ranks' populations still equal the
// file system's reads, one per segment, and every byte is the file's.
func TestDemandPopulatesOnceUnderFaults(t *testing.T) {
	const procs, segs = 4, 48
	for seed := int64(1); seed <= 4; seed++ {
		inj := faults.New(seed).
			Set(faults.SiteOSTRead, faults.Rule{Prob: 0.2}).
			Set(faults.SiteOSTSlow, faults.Rule{Prob: 0.1, Factor: 8}).
			Set(faults.SiteNetSetup, faults.Rule{Prob: 0.05}).
			Set(faults.SiteWinPut, faults.Rule{Prob: 0.05})
		rep, pops := sequentialDemandRead(t, procs, segs, inj)
		if rep.FS.Retries == 0 {
			t.Fatalf("seed %d: no population read was retried; the injector missed the read path", seed)
		}
		if pops != segs || rep.FS.Reads != segs {
			t.Errorf("seed %d: %d populations and %d file system reads (%d retries), want %d of each",
				seed, pops, rep.FS.Reads, rep.FS.Retries, segs)
		}
	}
}

package tcio

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/extent"
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
func preFS(segs int) *pfs.FileSystem {
	cfg := pfs.DefaultConfig()
	cfg.ByteScale, cfg.ReadAhead = (4<<20)/preSeg, 0
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

// preloadLandings reads each preload request's completion, by segment, off
// the storage layer's trace events.
func preloadLandings(rec *trace.Recorder) map[int64]simtime.Time {
	land := make(map[int64]simtime.Time)
	for _, ev := range rec.Events() {
		rest, ok := strings.CutPrefix(ev.Detail, "seg=")
		if ev.Kind != trace.KindPopulate || !ok || !strings.HasSuffix(rest, " (preload)") {
			continue
		}
		seg, err := strconv.ParseInt(strings.TrimSuffix(rest, " (preload)"), 10, 64)
		if err == nil {
			land[seg] = ev.Start.Add(ev.Dur)
		}
	}
	return land
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
		land = preloadLandings(rec)
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
	for _, at := range preloadLandings(rec) {
		end = max(end, at)
	}
	if end == 0 || closed < end {
		t.Errorf("Close returned at %d, before its preload finished landing at %d", closed, end)
	}
}

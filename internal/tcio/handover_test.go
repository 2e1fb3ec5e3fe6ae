package tcio

// Tests for the write Close's hand-over drain: the file system keeps every
// page a drained run covers whole as a slice of the level-2 window, so
// Close allocates no file pages for them, and copies everything else. The
// file system's page is its stripe, capped at 64 KiB, so a stripe-sized
// segment covers whole pages at every byte scale.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

// drainRig is one closeAlloc run: procs ranks on a file system of the given
// stripe write the first fill bytes of every segment of cfg's full capacity
// as piece-byte records dealt round robin.
type drainRig struct {
	name        string
	procs       int
	stripe      int64
	cfg         Config
	fill, piece int64
}

// closeAlloc runs the rig: the ranks write their records, flush them into
// the window, and close. It returns the bytes the process allocated from
// just before the Close to just after it on every rank, and fails unless
// the file equals the records. check, when set, runs on each
// rank after the Close with a snapshot of the window's bytes before it.
func closeAlloc(t *testing.T, r drainRig, check func(c *mpi.Comm, window []byte, file *pfs.File) error) uint64 {
	t.Helper()
	segs := int64(r.procs) * int64(r.cfg.NumSegments)
	truth := make([]byte, (segs-1)*r.cfg.SegmentSize+r.fill)
	var records []int64
	for base := int64(0); base < int64(len(truth)); base += r.cfg.SegmentSize {
		for off := base; off < base+r.fill; off += r.piece {
			records = append(records, off)
		}
		for i := base; i < base+r.fill; i++ {
			truth[i] = byte(i*13 + i>>11)
		}
	}
	fscfg := pfs.DefaultConfig()
	fscfg.StripeSize = r.stripe
	fs := pfs.New(fscfg)
	var before, after runtime.MemStats
	_, err := mpi.Run(mpi.Config{Procs: r.procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, r.name, WriteMode, r.cfg)
		if err != nil {
			return err
		}
		for i := c.Rank(); i < len(records); i += r.procs {
			off := records[i]
			end := min(off+r.piece, off-off%r.cfg.SegmentSize+r.fill)
			if err := f.WriteAt(off, truth[off:end]); err != nil {
				return err
			}
		}
		// Flush ships level-1 and retires the puts, so the Close measured
		// below does little but drain.
		if err := f.Flush(); err != nil {
			return err
		}
		var window []byte
		if check != nil {
			window = make([]byte, int64(r.cfg.NumSegments)*r.cfg.SegmentSize)
			f.win.SnapshotLocalInto(window, 0)
		}
		if err := c.Barrier(); err != nil { // every snapshot is taken
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		if check != nil {
			return check(c, window, c.FS().Open(r.name))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Open(r.name).Snapshot(); !bytes.Equal(got, truth) {
		t.Fatalf("%s: file image differs from ground truth", r.name)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestDrainHandsOverWholePages: with 1 MiB segments every drained run is
// whole file pages, so the Close that drains 4 MiB allocates less than one
// segment. Copying the window into fresh pages allocates all 4 MiB.
func TestDrainHandsOverWholePages(t *testing.T) {
	r := drainRig{name: "handover-1m", procs: 2, stripe: 1 << 20,
		cfg: Config{SegmentSize: 1 << 20, NumSegments: 2}, fill: 1 << 20, piece: 48 << 10}
	if got := closeAlloc(t, r, nil); got >= uint64(r.cfg.SegmentSize) {
		t.Fatalf("Close allocated %d bytes draining 4 MiB of whole pages, want under one segment (%d)",
			got, r.cfg.SegmentSize)
	}
}

// scaledRig is synth-tcio's shape: a 256 B stripe with 256 B segments,
// each segment's first fill bytes written.
func scaledRig(name string, fill int64) drainRig {
	return drainRig{name: name, procs: 2, stripe: 256,
		cfg: Config{SegmentSize: 256, NumSegments: 512}, fill: fill, piece: 96}
}

// slotsKept is a closeAlloc check: each of the rank's segments' file page
// holds its window slot's bytes, and when kept is set the pages lie end to
// end in memory, as slices of the rank's one window page do. Pages the file
// system allocated one by one do not, across all of a rank's slots.
func slotsKept(r drainRig, kept bool) func(c *mpi.Comm, window []byte, file *pfs.File) error {
	return func(c *mpi.Comm, window []byte, file *pfs.File) error {
		var prev []byte
		for slot := int64(0); slot < int64(r.cfg.NumSegments); slot++ {
			seg := slot*int64(r.procs) + int64(c.Rank())
			p := file.PageAt(seg * r.cfg.SegmentSize)
			if !bytes.Equal(p, window[slot*r.cfg.SegmentSize:(slot+1)*r.cfg.SegmentSize]) {
				return fmt.Errorf("segment %d: page differs from its window slot", seg)
			}
			if kept && prev != nil && uintptr(unsafe.Pointer(&p[0]))-uintptr(unsafe.Pointer(&prev[0])) != uintptr(r.cfg.SegmentSize) {
				return fmt.Errorf("segment %d: page does not follow the previous slot's in memory: not the window", seg)
			}
			prev = p
		}
		return nil
	}
}

// TestDrainHandsOverScaledSegments: at synth-tcio's shape the file system's
// page is the stripe, so every drained segment is one whole page: the file
// keeps it as a slice of its owner's window, and the image is ground truth.
// The Close issues one request per 256 B segment, and the file system's page
// and lock tables and the batch cost more than 256 B a request, so the
// allocation is compared with a Close that drains as many requests and
// copies them (TestDrainCopiesRunsShorterThanAPage's): it allocates at least
// 7/8 of the file less.
func TestDrainHandsOverScaledSegments(t *testing.T) {
	r := scaledRig("handover-256", 256)
	kept := closeAlloc(t, r, slotsKept(r, true))
	copied := closeAlloc(t, scaledRig("handover-256-half", 128), nil)
	if size := uint64(r.procs*r.cfg.NumSegments) * uint64(r.cfg.SegmentSize); kept+size*7/8 > copied {
		t.Fatalf("Close allocated %d bytes draining a %d-byte file of whole pages, %d copying as many half pages: want at least 7/8 of the file less",
			kept, size, copied)
	}
}

// TestDrainCopiesRunsShorterThanAPage: at the same scaled geometry, with
// only the first half of every segment written, no drained run covers a
// page, so the file system copies them all into pages of its own: the
// Close allocates at least one page per segment, and keeps none of the
// window.
func TestDrainCopiesRunsShorterThanAPage(t *testing.T) {
	r := scaledRig("handover-half", 128)
	got := closeAlloc(t, r, slotsKept(r, false))
	if pages := uint64(r.procs*r.cfg.NumSegments) * uint64(r.stripe); got < pages {
		t.Fatalf("Close allocated %d bytes draining half-page runs, want at least the file's %d pages (%d bytes)",
			got, r.procs*r.cfg.NumSegments, pages)
	}
}

// TestWholePageFlushGivesItsPage: a write handle whose window is one 64 KiB
// segment, and whose only flush fills it, gives its level-1 page to the
// window (mpi.Win.GivePageAsync): the Flush allocates less than a page, and
// the level-1 buffer neither holds the page nor recycles it. A flush of half
// the segment copies into a window page of the window's own, allocating at
// least a page, and recycles its level-1 page. The file holds the bytes
// either way.
func TestWholePageFlushGivesItsPage(t *testing.T) {
	const seg = l1PageSize
	data := make([]byte, seg)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	for _, n := range []int64{seg, seg / 2} {
		var before, after runtime.MemStats
		fs := pfs.New(pfs.DefaultConfig())
		_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
			f, err := Open(c, "give", WriteMode, Config{SegmentSize: seg, NumSegments: 1})
			if err != nil {
				return err
			}
			if err := f.WriteAt(0, data[:n]); err != nil {
				return err
			}
			runtime.ReadMemStats(&before)
			if err := f.Flush(); err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			if given := f.l1.pages[0] == nil && len(f.l1.free) == 0; given != (n == seg) {
				return fmt.Errorf("%d-byte flush: level-1 page given = %v, want %v", n, given, n == seg)
			}
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := fs.Open("give").Snapshot(); !bytes.Equal(got, data[:n]) {
			t.Fatalf("%d-byte flush: file image differs from the written bytes", n)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		if n == seg && alloc >= seg || n < seg && alloc < seg {
			t.Fatalf("%d-byte flush allocated %d bytes: want under a %d-byte page for a whole page, at least one otherwise", n, alloc, seg)
		}
	}
}

// TestRetriedFlushGivesItsPageOnce: under one-sided put drops
// (faults.SiteWinPut), four ranks each fill the one-segment window of the
// next rank, scale-4096's shape. A dropped attempt puts nothing, so each
// rank's one flush is one transfer however often it was retried, and its
// level-1 page ends in the owner's window, neither held nor recycled.
func TestRetriedFlushGivesItsPageOnce(t *testing.T) {
	const procs, seg, piece = 4, 8 << 10, 1 << 10
	want := make([]byte, procs*seg)
	for i := range want {
		want[i] = byte(i*11 + i>>10)
	}
	var retries atomic.Int64
	for seed := int64(1); seed <= 4; seed++ {
		fs := pfs.New(pfs.DefaultConfig())
		rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs,
			Faults: faults.New(seed).Set(faults.SiteWinPut, faults.Rule{Prob: 0.4})}, func(c *mpi.Comm) error {
			f, err := Open(c, "give-retry", WriteMode, Config{SegmentSize: seg, NumSegments: 1})
			if err != nil {
				return err
			}
			base := int64((c.Rank()+1)%procs) * seg
			for off := base; off < base+seg; off += piece {
				if err := f.WriteAt(off, want[off:off+piece]); err != nil {
					return err
				}
			}
			if err := f.Flush(); err != nil {
				return err
			}
			if f.l1.pages[0] != nil || len(f.l1.free) != 0 {
				return fmt.Errorf("rank %d: the level-1 page was kept, not given", c.Rank())
			}
			retries.Add(f.Stats().Retries)
			return f.Close()
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Net.OneSidedMsgs != procs {
			t.Errorf("seed %d: %d one-sided transfers for %d flushes", seed, rep.Net.OneSidedMsgs, procs)
		}
		if got := fs.Open("give-retry").Snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: file image differs from the written bytes", seed)
		}
	}
	if retries.Load() == 0 {
		t.Fatal("no flush was retried; the injector missed the put path")
	}
}

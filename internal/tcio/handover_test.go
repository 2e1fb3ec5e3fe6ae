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
	"testing"

	"github.com/tcio/tcio/internal/cluster"
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
// rank after the Close with the window's bytes as they were before it.
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
		window := f.win.Local()
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

// slotsKept is a closeAlloc check: each of the rank's segments' file page is
// its window slot when kept is set, and a page of the file's own otherwise.
func slotsKept(r drainRig, kept bool) func(c *mpi.Comm, window []byte, file *pfs.File) error {
	return func(c *mpi.Comm, window []byte, file *pfs.File) error {
		for slot := int64(0); slot < int64(r.cfg.NumSegments); slot++ {
			seg := slot*int64(r.procs) + int64(c.Rank())
			p := file.PageAt(seg * r.cfg.SegmentSize)
			if aliased := &p[0] == &window[slot*r.cfg.SegmentSize]; aliased != kept {
				return fmt.Errorf("segment %d: page aliases its window slot = %v, want %v", seg, aliased, kept)
			}
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

package tcio

// Tests for the read handle's window of lent pages: a population lends the
// file system's pages to its own rank's window slot instead of copying them
// into a fresh window, so a read Open allocates no image of the file, and a
// read handle still returns the bytes its population read whatever is
// written to the file afterwards.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/pfs"
)

// lendFS returns a file system of stripe bytes whose file name holds size
// bytes of wantReadByte, stored host-side.
func lendFS(stripe int64, name string, size int) *pfs.FileSystem {
	cfg := pfs.DefaultConfig()
	cfg.StripeSize = stripe
	fs := pfs.New(cfg)
	img := make([]byte, size)
	for i := range img {
		img[i] = wantReadByte(int64(i))
	}
	fs.Open(name).StoreDirect(0, img)
	return fs
}

// readBack queues one read of every byte in [0, n) of f, fetches them and
// checks them against want.
func readBack(f *File, n int64, want func(int64) byte) error {
	got := make([]byte, n)
	if err := f.ReadAt(0, got); err != nil {
		return err
	}
	if err := f.Fetch(); err != nil {
		return err
	}
	for i, b := range got {
		if b != want(int64(i)) {
			return fmt.Errorf("byte %d reads %d, want %d", i, b, want(int64(i)))
		}
	}
	return nil
}

// TestReadHandleKeepsItsPopulation: after a preloading read Open, rank 0
// overwrites a range that spans two ranks' segments, through pfs directly
// and through mpiio. The read handle's Fetch still returns the bytes the
// population read, and the file holds the new ones.
func TestReadHandleKeepsItsPopulation(t *testing.T) {
	const procs, seg, size = 3, 4 << 10, 6 * (4 << 10)
	fs := lendFS(seg, "snap", size)
	patch := bytes.Repeat([]byte{0xAB}, seg)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		f, err := Open(c, "snap", ReadMode, Config{SegmentSize: seg, NumSegments: 2})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, err := c.FS().Open("snap").WriteAt(c.Node(), seg/2, patch, c.Now()); err != nil {
				return err
			}
			m, err := mpiio.Open(c, "snap")
			if err != nil {
				return err
			}
			if err := m.WriteAt(3*seg+seg/2, patch); err != nil {
				return err
			}
			if err := m.Close(); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := readBack(f, size, wantReadByte); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	for i := range want {
		want[i] = wantReadByte(int64(i))
	}
	copy(want[seg/2:], patch)
	copy(want[3*seg+seg/2:], patch)
	if got := fs.Open("snap").Snapshot(); !bytes.Equal(got, want) {
		t.Fatal("the file does not hold the overwritten bytes")
	}
}

// TestReadHandleSurvivesTruncateResetAndHandOver: between a read handle's
// Open and its Fetch the file is truncated, the file system's counters
// reset, and a write handle on the same file drains whole pages over the
// very pages the read handle was lent. The read handle still returns the
// bytes its population read.
func TestReadHandleSurvivesTruncateResetAndHandOver(t *testing.T) {
	const procs, seg, size = 2, 4 << 10, 4 * (4 << 10)
	fs := lendFS(seg, "survive", size)
	cfg := Config{SegmentSize: seg, NumSegments: 2}
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		r, err := Open(c, "survive", ReadMode, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if _, _, err := c.FS().Open("survive").TruncateAtRetry(c.Node(), c.Now(), faults.NoRetry()); err != nil {
				return err
			}
			c.FS().Reset()
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		w, err := Open(c, "survive", WriteMode, cfg)
		if err != nil {
			return err
		}
		for s := int64(c.Rank()); s < size/seg; s += procs {
			if err := w.WriteAt(s*seg, bytes.Repeat([]byte{0x3C}, seg)); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		if err := readBack(r, size, wantReadByte); err != nil {
			return fmt.Errorf("rank %d: %w", c.Rank(), err)
		}
		return r.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.Open("survive").Snapshot(); !bytes.Equal(got, bytes.Repeat([]byte{0x3C}, size)) {
		t.Fatal("the file does not hold the write handle's bytes")
	}
}

// openAlloc is the bytes the process allocates across rank 0's read Open —
// its preload included — of a one-rank world on fs, whose file name spans
// the handle's whole window.
func openAlloc(t *testing.T, fs *pfs.FileSystem, name string, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		runtime.ReadMemStats(&before)
		f, err := Open(c, name, ReadMode, cfg)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		if err := readBack(f, fs.Open(name).Size(), wantReadByte); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadOpenAllocatesNoWindow: a read Open of eight 64 KiB segments, each
// a whole file-system page, allocates less than one segment — the window is
// the file system's pages — and reads back byte-exact. A window copied from
// the file allocates all eight.
func TestReadOpenAllocatesNoWindow(t *testing.T) {
	const seg, segs = 64 << 10, 8
	cfg := Config{SegmentSize: seg, NumSegments: segs}
	if got := openAlloc(t, lendFS(1<<20, "nowin", seg*segs), "nowin", cfg); got >= seg {
		t.Fatalf("read Open allocated %d bytes for %d segments of %d, want under one segment", got, segs, seg)
	}
}

// TestUnalignedSegmentsCopy: a 1000-byte segment is no whole number of the
// file system's pages, so each populated segment is copied into a page of
// the window's own — the Open allocates at least the file — and the handle
// reads back byte-exact.
func TestUnalignedSegmentsCopy(t *testing.T) {
	const seg, segs = 1000, 8
	cfg := Config{SegmentSize: seg, NumSegments: segs}
	if got := openAlloc(t, lendFS(1<<20, "copy", seg*segs-300), "copy", cfg); got < seg*segs-300 {
		t.Fatalf("read Open allocated %d bytes, want the populated segments' %d at least", got, seg*segs-300)
	}
}

// TestWindowReadsZerosPastEOF: with a file ending inside a rank's second
// segment and windows reaching well past it, every rank reads the file's
// bytes and zeros after them, both when the Open preloads and when the
// fetches populate on demand — there a segment another rank owns is put into
// that owner's absent pages.
func TestWindowReadsZerosPastEOF(t *testing.T) {
	const procs, seg, size = 3, 4 << 10, 4*(4<<10) + 100
	for _, demand := range []bool{false, true} {
		t.Run(fmt.Sprintf("demand=%v", demand), func(t *testing.T) {
			fs := lendFS(seg, "eof", size)
			_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
				f, err := Open(c, "eof", ReadMode, Config{SegmentSize: seg, NumSegments: 3, DemandPopulate: demand})
				if err != nil {
					return err
				}
				if err := readBack(f, f.Capacity(), func(i int64) byte {
					if i >= size {
						return 0
					}
					return wantReadByte(i)
				}); err != nil {
					return fmt.Errorf("rank %d: %w", c.Rank(), err)
				}
				return f.Close()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

package tcio

// Tests for the write Close's hand-over drain: the file system keeps every
// page a drained run covers whole as a slice of the level-2 window, so
// Close allocates no file pages for them, and copies everything else.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/tcio/tcio/internal/mpi"
)

// fsPage is the file system's page, the unit it keeps by reference.
const fsPage = 64 << 10

// closeAlloc has procs ranks fill a file of cfg's full capacity with
// piece-byte records dealt round robin, flush them into the window, and
// close. It returns the bytes the process allocated from just before the
// Close to just after it on every rank, and fails unless the file equals
// the records.
func closeAlloc(t *testing.T, name string, procs int, cfg Config, piece int64) uint64 {
	t.Helper()
	size := int64(procs) * int64(cfg.NumSegments) * cfg.SegmentSize
	truth := make([]byte, size)
	for i := range truth {
		truth[i] = byte(i*13 + i>>11)
	}
	var before, after runtime.MemStats
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, name, WriteMode, cfg)
		if err != nil {
			return err
		}
		for off := int64(c.Rank()) * piece; off < size; off += int64(procs) * piece {
			if err := f.WriteAt(off, truth[off:min(off+piece, size)]); err != nil {
				return err
			}
		}
		// Flush ships level-1 and retires the puts, so the Close measured
		// below does little but drain.
		if err := f.Flush(); err != nil {
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
			if got := c.FS().Open(name).Snapshot(); !bytes.Equal(got, truth) {
				return fmt.Errorf("file image differs from ground truth")
			}
		}
		return nil
	})
	return after.TotalAlloc - before.TotalAlloc
}

// TestDrainHandsOverWholePages: with 1 MiB segments every drained run is
// whole file pages, so the Close that drains 4 MiB allocates less than one
// segment. Copying the window into fresh pages allocates all 4 MiB.
func TestDrainHandsOverWholePages(t *testing.T) {
	cfg := Config{SegmentSize: 1 << 20, NumSegments: 2}
	if got := closeAlloc(t, "handover-1m", 2, cfg, 48<<10); got >= uint64(cfg.SegmentSize) {
		t.Fatalf("Close allocated %d bytes draining 4 MiB of whole pages, want under one segment (%d)",
			got, cfg.SegmentSize)
	}
}

// TestDrainCopiesRunsShorterThanAPage: with 256-byte segments no drained
// run covers a page, so the file system copies them all into pages of its
// own: the Close allocates at least the file's pages.
func TestDrainCopiesRunsShorterThanAPage(t *testing.T) {
	cfg := Config{SegmentSize: 256, NumSegments: 512}
	size := 2 * int64(cfg.NumSegments) * cfg.SegmentSize
	if got := closeAlloc(t, "handover-256", 2, cfg, 96); got < uint64(size) {
		t.Fatalf("Close allocated %d bytes draining %d bytes of sub-page runs, want at least the file's %d pages",
			got, size, size/fsPage)
	}
}

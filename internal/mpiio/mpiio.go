// Package mpiio implements the MPI-IO layer of the simulation: shared file
// handles, file views built from derived datatypes, independent per-piece
// I/O ("vanilla MPI-IO" in the paper's terminology), and OCIO — the
// original collective I/O of ROMIO, i.e. the two-phase algorithm with file
// views, aggregators, and an all-to-all data exchange (paper §III).
//
// TCIO (package tcio) is the paper's alternative to everything here: it
// needs none of the file-view machinery and replaces the two-phase exchange
// with one-sided transfers into level-2 buffers.
package mpiio

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// Per-item library CPU costs, multiplied by the machine's ByteScale (a
// scaled run stands for ByteScale times as many items).
const (
	// callCPU is charged per independent I/O call (request setup).
	callCPU = 150 * simtime.Nanosecond
	// runCPU is charged per flattened (offset,len) run the two-phase
	// machinery encodes, decodes, scatters, or assembles. The cost of this
	// scatter-gather processing is a recognized OCIO overhead (the
	// view-based collective I/O work the paper cites exists to cut it).
	runCPU = 60 * simtime.Nanosecond
)

// File is one rank's handle on a shared file. A File is not safe for
// concurrent use; each rank owns its handle, as in MPI.
type File struct {
	c *mpi.Comm

	// store is the file system access path: every request goes through the
	// storage layer, which handles retry, virtual-time charging, and fault
	// accounting in one place.
	store *storage.Client

	pos int64 // file pointer of the collective calls, in bytes past the view

	// view maps visible bytes to file runs; runs is the scratch list every
	// call flattens into, so steady-state calls allocate nothing for it. A
	// collective call packs its exchange straight from it and then reuses it
	// for the runs it receives (ocio.go).
	view *datatype.View
	runs []datatype.Segment

	// Collective-call scratch (ocio.go), kept like runs: one exchange's
	// displacements and receive slots.
	displs []int
	recv   [][]byte
}

// Retries reports the transient faults this handle absorbed with backoff.
func (f *File) Retries() int64 { return f.store.Retries() }

// writeRetry issues one file system write through the storage layer, which
// advances the rank's clock through backoffs and the final attempt.
func (f *File) writeRetry(off int64, data []byte) error {
	return f.store.WriteAt("mpiio: write", off, data)
}

// handOverRetry is writeRetry for bytes the caller gives up: the file
// system keeps every page data covers whole by reference instead of copying
// it (storage.HandOverExtents). The request, charge and trace are
// writeRetry's; the caller must never write data again.
func (f *File) handOverRetry(off int64, data []byte) error {
	_, err := f.store.HandOverExtents("mpiio: write", trace.KindDrain, []storage.Request{{Off: off, Data: data}})
	return err
}

// readRetry is writeRetry's read-side counterpart.
func (f *File) readRetry(off int64, dst []byte) error {
	return f.store.ReadAt("mpiio: read", off, dst)
}

// lendRetry is readRetry of the extent d for a reader that borrows the
// file's pages instead of copying them (storage.LendExtentsFrom, departing
// at the rank's present): the request, charge, fault roll, counters and
// trace are readRetry's. It returns the table of the pages d touches, the
// first holding d.Off; the reader must not write them.
func (f *File) lendRetry(d extent.Extent) ([][]byte, error) {
	ps := f.c.FS().Page()
	req := []storage.Request{{Off: d.Off, Len: d.Len, Pages: make([][]byte, (d.Off%ps+d.Len+ps-1)/ps)}}
	_, end, err := f.store.LendExtentsFrom("mpiio: read", trace.KindFetch, req, f.c.Now())
	f.c.AdvanceTo(end)
	return req[0].Pages, err
}

// chargeCPU charges n items' worth of per-item processing cost.
func (f *File) chargeCPU(per simtime.Duration, n int) {
	f.c.Compute(per * simtime.Duration(n) * simtime.Duration(f.c.Machine().ByteScale))
}

// Open opens (creating if necessary) the named shared file. Open is not
// collective in this runtime — the underlying object is shared by name —
// but callers conventionally open on all ranks, as MPI_File_open requires.
// The error return matches MPI_File_open's (and tcio.Open's) contract;
// today only an empty name is rejected, but callers must not assume that
// stays the whole list.
func Open(c *mpi.Comm, name string) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("mpiio: open with empty name")
	}
	view, err := datatype.NewView(0, datatype.Byte)
	if err != nil {
		return nil, err
	}
	return &File{
		c:     c,
		store: storage.NewClient(c.FS().Open(name), c.Node(), c.Rank(), c),
		view:  view,
	}, nil
}

// PFS exposes the underlying simulated file (verification helper).
func (f *File) PFS() *pfs.File { return f.store.File() }

// SetView installs a file view (MPI_File_set_view): the visible bytes of
// the file are those selected by repeating filetype starting at byte
// displacement disp; etype is the elementary unit of offsets.
func (f *File) SetView(disp int64, etype, filetype datatype.Type) error {
	if etype.Size() <= 0 {
		return fmt.Errorf("mpiio: empty etype")
	}
	if filetype.Size()%etype.Size() != 0 {
		return fmt.Errorf("mpiio: filetype size %d not a multiple of etype size %d",
			filetype.Size(), etype.Size())
	}
	view, err := datatype.NewView(disp, filetype)
	if err != nil {
		return fmt.Errorf("mpiio: %w", err)
	}
	f.view = view
	f.pos = 0
	return nil
}

// SeekTo positions the independent file pointer, in bytes of visible data.
func (f *File) SeekTo(pos int64) error {
	if pos < 0 {
		return fmt.Errorf("mpiio: SeekTo(%d)", pos)
	}
	f.pos = pos
	return nil
}

// viewRuns maps n visible bytes starting at visible offset pos into
// absolute file runs according to the current view. The result aliases the
// handle's scratch list and is valid until the next call on f.
func (f *File) viewRuns(pos, n int64) ([]datatype.Segment, error) {
	if n < 0 || pos < 0 {
		return nil, fmt.Errorf("mpiio: access of %d bytes at visible offset %d", n, pos)
	}
	f.runs = f.view.Runs(f.runs[:0], pos, n)
	return f.runs, nil
}

// WriteAt writes data independently at the given visible byte offset,
// through the view. This is the paper's "vanilla MPI-IO": each piece is its
// own file system request — no aggregation, no coordination.
func (f *File) WriteAt(pos int64, data []byte) error {
	f.chargeCPU(callCPU, 1)
	runs, err := f.viewRuns(pos, int64(len(data)))
	if err != nil {
		return err
	}
	consumed := int64(0)
	for _, r := range runs {
		if err := f.writeRetry(r.Off, data[consumed:consumed+r.Len]); err != nil {
			return err
		}
		consumed += r.Len
	}
	return nil
}

// ReadAt reads n visible bytes independently at the given visible offset.
func (f *File) ReadAt(pos, n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("mpiio: ReadAt of %d bytes", n)
	}
	out := make([]byte, n)
	if err := f.ReadAtInto(pos, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtInto fills dst with the len(dst) visible bytes at the given visible
// offset, independently: one file system request per run of the view.
func (f *File) ReadAtInto(pos int64, dst []byte) error {
	f.chargeCPU(callCPU, 1)
	runs, err := f.viewRuns(pos, int64(len(dst)))
	if err != nil {
		return err
	}
	for _, r := range runs {
		if err := f.readRetry(r.Off, dst[:r.Len]); err != nil {
			return err
		}
		dst = dst[r.Len:]
	}
	return nil
}

// Close releases the handle. The shared file object persists in the
// simulated file system.
func (f *File) Close() error { return nil }

package tcio

// The lazy read path (paper §IV.B): Read/ReadAt only record destination
// buffers; Fetch performs the real one-sided gets, batched per owner so
// the epochs' transfer waits overlap.

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/trace"
)

// readReq is one recorded lazy read: fill dst from the given file offset.
type readReq struct {
	off int64
	dst []byte
}

// Read records a lazy read of n bytes at the current pointer and returns
// the destination buffer. The buffer's contents are defined only after
// Fetch (or Close) — the paper's lazy-loading contract.
func (f *File) Read(n int64) ([]byte, error) {
	dst := make([]byte, n)
	if err := f.ReadAt(f.pos, dst); err != nil {
		return nil, err
	}
	f.pos += n
	return dst, nil
}

// ReadTyped lazily reads count elements of type t at the current pointer
// and scatters them into mem according to the type's layout — the
// tcio_read(fh, data, count, MPI_Datatype) entry point. Like all TCIO
// reads, mem is defined only after Fetch (or Close).
func (f *File) ReadTyped(mem []byte, count int, t datatype.Type) error {
	need := int64(count) * t.Extent()
	if int64(len(mem)) < need {
		return fmt.Errorf("tcio: ReadTyped needs %d bytes of destination, have %d", need, len(mem))
	}
	staging := make([]byte, int64(count)*t.Size())
	if err := f.ReadAt(f.pos, staging); err != nil {
		return err
	}
	f.pos += int64(len(staging))
	f.postFetch = append(f.postFetch, func() {
		// Unpack cannot fail here: sizes were validated above.
		_ = datatype.Unpack(staging, mem, t, count)
	})
	return nil
}

// ReadAt records a lazy read filling dst from the given file offset
// (tcio_read_at). Data lands in dst at the next Fetch, segment
// realignment, or Close.
func (f *File) ReadAt(off int64, dst []byte) error {
	switch {
	case f.closed:
		return ErrClosed
	case f.mode != ReadMode:
		return fmt.Errorf("%w: read on %s handle", ErrMode, f.mode)
	case off < 0:
		return fmt.Errorf("tcio: negative offset %d", off)
	}
	f.stats.Reads++
	f.stats.BytesRead += int64(len(dst))
	if f.tracing() {
		f.emit(trace.KindRead, f.c.Now(), int64(len(dst)), fmt.Sprintf("off=%d", off))
	}
	for len(dst) > 0 {
		seg := f.globalSegment(off)
		segOff := off % f.segSize
		n := f.segSize - segOff
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if !f.layout.InRange(seg) {
			_, slot := f.segmentOwner(seg)
			return fmt.Errorf("%w: offset %d needs slot %d of %d (raise NumSegments)",
				ErrCapacity, off, slot, f.numSeg)
		}
		// Track the span of queued reads; once it exceeds the batch of
		// segments, perform the real data movement (the "file domain of
		// cached reads exceeds the level-1 buffer" rule, batched).
		if f.pendingSeg != seg {
			f.pendingDistinct++
			f.pendingSeg = seg
			if f.pendingDistinct > f.cfg.FetchBatch {
				// Always the independent path, even under CollectiveRead: a
				// rank-local batch overflow cannot be a collective call —
				// peers may be anywhere in their own compute.
				if err := f.fetchIndependent(); err != nil {
					return err
				}
				f.pendingDistinct = 1
				f.pendingSeg = seg
			}
		}
		f.c.Compute(f.pieceCPU)
		f.pending = append(f.pending, readReq{off: off, dst: dst[:n]})
		off += n
		dst = dst[n:]
	}
	return nil
}

// Fetch completes all recorded lazy reads (tcio_fetch). By default it is
// independent: only the calling rank participates. Under
// Config.CollectiveRead it is instead the two-phase collective exchange of
// collective.go — every rank of the read session must call it together.
func (f *File) Fetch() error {
	if f.closed {
		return ErrClosed
	}
	if f.cfg.CollectiveRead && f.mode == ReadMode {
		return f.fetchCollective()
	}
	return f.fetchIndependent()
}

// fetchIndependent is the rank-local fetch: gets for all queued segments
// are issued asynchronously under concurrently held shared window locks —
// one epoch per owner — so their wire times overlap instead of
// serializing.
func (f *File) fetchIndependent() error {
	if len(f.pending) == 0 {
		f.pendingSeg = -1
		f.pendingDistinct = 0
		f.runPostFetch()
		return nil
	}
	bySeg, order := f.groupPending()

	// Phase 1: make sure every needed segment is populated (only possible
	// in demand mode; the default preloads at Open). Population needs the
	// owner's exclusive lock. With prefetch armed, each step serves the
	// current segment (from the cache when it was staged in time), then
	// pushes the background lane ahead over the batch's forward-consecutive
	// successors — after the current segment's read, so the rank's file
	// system request order is exactly the demand loop's. With the sieve
	// armed, only the runs the queued reads need are staged (sieve.go)
	// instead of the whole segment; a staged prefetch still wins — its
	// whole-segment read already happened, so sieving after it would only
	// re-read bytes the cache holds.
	for i, seg := range order {
		if f.meta.isPopulated(seg) {
			f.dropWastedPrefetch(seg)
			continue
		}
		owner, slot := f.segmentOwner(seg)
		if err := f.win.Lock(owner, true); err != nil {
			return err
		}
		if !f.meta.isPopulated(seg) {
			var perr error
			if e, ok := f.takePrefetched(seg); ok {
				perr = f.populateFromCache(seg, owner, slot, e)
			} else if f.sieveArmed() {
				perr = f.sievePopulate(seg, owner, slot, segmentRuns(bySeg[seg], f.segSize))
			} else {
				perr = f.populate(seg, owner, slot)
			}
			if perr == nil {
				perr = f.maybePrefetch(order, i)
			}
			if perr != nil {
				f.win.Unlock(owner)
				return perr
			}
		} else {
			f.dropWastedPrefetch(seg)
		}
		if err := f.win.Unlock(owner); err != nil {
			return err
		}
	}
	return f.fetchGets(order, bySeg)
}

// groupPending groups the queued lazy reads by global segment, in first-
// appearance order (requests may span several segments when a single
// ReadAt crossed a boundary), and resets the queue.
func (f *File) groupPending() (map[int64][]readReq, []int64) {
	bySeg := make(map[int64][]readReq)
	var order []int64
	for _, r := range f.pending {
		seg := f.globalSegment(r.off)
		if _, ok := bySeg[seg]; !ok {
			order = append(order, seg)
		}
		bySeg[seg] = append(bySeg[seg], r)
	}
	f.pending = f.pending[:0]
	f.pendingSeg = -1
	f.pendingDistinct = 0
	return bySeg, order
}

// fetchGets is the data-movement phase shared by the independent and
// collective fetch paths: shared-lock each owner once, issue every
// segment's get asynchronously, then unlock — Unlock synchronizes with the
// epoch's transfers, so the waits overlap across owners and segments.
func (f *File) fetchGets(order []int64, bySeg map[int64][]readReq) error {
	if len(order) == 0 {
		f.runPostFetch()
		return nil
	}
	type pendingGet struct {
		handle *mpi.GetHandle
		reqs   []readReq
	}
	owners := make(map[int]bool)
	var lockOrder []int
	for _, seg := range order {
		owner, _ := f.segmentOwner(seg)
		if !owners[owner] {
			owners[owner] = true
			lockOrder = append(lockOrder, owner)
		}
	}
	for _, owner := range lockOrder {
		if err := f.win.Lock(owner, false); err != nil {
			return err
		}
	}
	gets := make([]pendingGet, 0, len(order))
	var issueErr error
	for _, seg := range order {
		owner, slot := f.segmentOwner(seg)
		reqs := bySeg[seg]
		runs := make([]extent.Extent, len(reqs))
		for i, r := range reqs {
			runs[i] = extent.Extent{Off: slot*f.segSize + r.off%f.segSize, Len: int64(len(r.dst))}
		}
		h, err := f.win.GetSegmentsAsync(owner, runs)
		if err != nil {
			issueErr = err
			break
		}
		f.stats.Gets++
		gets = append(gets, pendingGet{handle: h, reqs: reqs})
	}
	for _, owner := range lockOrder {
		if err := f.win.Unlock(owner); err != nil && issueErr == nil {
			issueErr = err
		}
	}
	if issueErr != nil {
		return issueErr
	}
	// All epochs are closed: every get's data is complete. Scatter it.
	fetchStart := f.c.Now()
	var fetched int64
	for _, g := range gets {
		data := g.handle.Complete()
		at := int64(0)
		for _, r := range g.reqs {
			copy(r.dst, data[at:at+int64(len(r.dst))])
			at += int64(len(r.dst))
		}
	}
	for _, g := range gets {
		for _, r := range g.reqs {
			fetched += int64(len(r.dst))
		}
	}
	if f.tracing() {
		f.emit(trace.KindFetch, fetchStart, fetched, fmt.Sprintf("segments=%d", len(gets)))
	}
	f.runPostFetch()
	return nil
}

// runPostFetch fires and clears the typed-read unpack hooks.
func (f *File) runPostFetch() {
	hooks := f.postFetch
	f.postFetch = nil
	for _, h := range hooks {
		h()
	}
}

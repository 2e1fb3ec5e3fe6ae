package tcio

// The file system side of TCIO: populating level-2 segments from the file
// (reads) and draining dirty runs back to it (writes). All transfers go
// through the storage layer, which batches retry handling, tracing, and
// virtual-time charging, and posts each batch to the file system as one
// list-I/O request.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// populate is the read path's one population rule (DESIGN.md §2b): it posts
// the reads of the given segments as one batch departing at the rank's
// present and marks each segment populated at its own landing. Nothing
// waits for the batch: a get of a segment leaves no earlier than its landing
// (issueGets), and a read Close waits for the latest landing this rank
// posted. A segment is read whole, clipped at EOF. A segment this rank owns
// is read straight into its window slot; another owner's is read into
// staging and put there (land). The caller holds the exclusive window lock
// of every owner, or owns the slots outright (the preload, before Open's
// barrier), so the bytes are in the window before the flag is set.
func (f *File) populate(segs []int64) error {
	start, size := f.c.Now(), f.store.File().Size()
	req := make([]storage.Request, 1)
	for _, seg := range segs {
		owner, slot := f.layout.Owner(seg)
		base := f.layout.SegStart(seg)
		// A segment at or past EOF reads nothing: the window's zeros are what
		// the (hole-extended) file holds.
		var landed simtime.Time
		if n := min(f.layout.SegSize, size-base); n > 0 {
			// buf is the segment's bytes: its window slot when this rank owns
			// it, else the session's staging, put there after the read.
			local := owner == f.c.Rank()
			var buf []byte
			if local {
				buf = f.win.Local()[slot*f.layout.SegSize : slot*f.layout.SegSize+n]
			} else {
				buf = f.stagingBuf(f.layout.SegSize)[:n]
			}
			req[0] = storage.Request{Off: base, Data: buf, Tag: f.tag(seg, base)}
			res, end, err := f.store.ReadExtentsFrom("tcio: populate", trace.KindPopulate, req, start)
			f.stats.Retries += res.Retries
			f.stats.Populations += res.Requests
			if err != nil {
				return err
			}
			if landed = end; !local {
				if landed, err = f.land(owner, slot, buf, landed); err != nil {
					return err
				}
			}
		}
		f.meta.setPopulated(seg, landed)
		f.landed = max(f.landed, landed)
	}
	return nil
}

// land puts what this rank read for another owner's segment into that
// owner's window slot: data is the segment's leading bytes, done the read's
// completion. The put is issued now and timed like a get floored at done
// (Win.GetSegmentsAsync): the network sees it at its issue, and it arrives
// done − departure later when its bytes were still landing as it left. land
// returns that arrival, the segment's landing.
func (f *File) land(owner int, slot int64, data []byte, done simtime.Time) (simtime.Time, error) {
	if mutate.Enabled(mutate.TCIOStalePopulate) {
		return done, nil
	}
	runs := append(f.winRunsScratch[:0], extent.Extent{Off: slot * f.layout.SegSize, Len: int64(len(data))})
	f.winRunsScratch = runs[:0]
	h, err := f.win.PutSegmentsAsync(owner, runs, data)
	if err != nil {
		return 0, err
	}
	at := h.Arrival()
	if depart := f.c.Now(); done > depart {
		at = at.Add(done.Sub(depart))
	}
	return at, nil
}

// preloadAll posts the load of every local slot that overlaps the file — the
// default read population, through populate. Each rank reads only its own
// segments, so the file system sees P large disjoint requests, each rank's
// posted at its present; Open does not wait for them. The ranks post one at
// a time in (clock, rank) order (Comm.InClockOrder), as the write Close
// drains, so the OST queues see the batches in virtual-time order.
func (f *File) preloadAll() error {
	var segs []int64
	size := f.store.File().Size()
	f.preloaded = size
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		if f.layout.SegStart(seg) >= size {
			break
		}
		segs = append(segs, seg)
	}
	if err := f.c.InClockOrder(func() error { return f.populate(segs) }); err != nil {
		return err
	}
	return f.c.Barrier()
}

// tag is a population or drain request's trace detail, "seg=S off=O". It is
// built only when tracing; an untraced error names the request by the
// storage layer's "N bytes at OFF" instead.
func (f *File) tag(seg, off int64) string {
	if !f.tracing() {
		return ""
	}
	return fmt.Sprintf("seg=%d off=%d", seg, off)
}

// drain writes this rank's still-undrained level-2 runs to the file system
// as one storage batch of large aligned requests, once, at Close (paper
// §IV).
//
// The batch hands the window over (storage.HandOverExtents): the file
// system keeps every file page a run covers whole as a slice of this rank's
// window instead of copying it. That is safe because nothing writes the
// window again. The drain runs after the barrier that retired every put,
// it is the handle's only drain, and Close then releases the window to the
// accountant only, never to a pool (session.release). Head and tail
// fragments of a run, and runs shorter than a page, are still copied.
func (f *File) drain() error {
	local := f.win.Local()
	var reqs []storage.Request
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		runs, arrival := f.meta.takePending(seg)
		if len(runs) == 0 {
			continue
		}
		// The barrier before drain already synchronized every rank past its
		// unlocks, so the recorded put arrivals are in this rank's past;
		// AdvanceTo keeps the causal bound explicit (and free) regardless.
		f.c.AdvanceTo(arrival)
		base := f.layout.SegStart(seg)
		for _, r := range runs {
			reqs = append(reqs, storage.Request{
				Off:  base + r.Off,
				Data: local[slot*f.layout.SegSize+r.Off : slot*f.layout.SegSize+r.Off+r.Len],
				Tag:  f.tag(seg, base+r.Off),
			})
		}
	}
	res, err := f.store.HandOverExtents("tcio: drain", trace.KindDrain, reqs)
	f.stats.Retries += res.Retries
	f.stats.FSWrites += res.Requests
	return err
}

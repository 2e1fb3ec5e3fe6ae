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
			req[0] = storage.Request{Off: base, Data: buf, Tag: fmt.Sprintf("seg=%d off=%d", seg, base)}
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
// posted at its present; Open does not wait for them.
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
	if err := f.populate(segs); err != nil {
		return err
	}
	return f.c.Barrier()
}

// drain writes this rank's still-undrained level-2 runs to the file system
// as one storage batch of large aligned requests. With write-behind armed,
// most segments already left on the background lane and only the residue
// remains; the rank then synchronizes with the lane so Close returns with
// every byte on disk.
func (f *File) drain() error {
	// Spilled slots first: their bytes live in the journal, not (in
	// simulated terms) in the window, so the drain pays the read-back
	// before it may write them (journal.go).
	if err := f.refaultSpilled(); err != nil {
		return err
	}
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
				Tag:  fmt.Sprintf("seg=%d off=%d", seg, base+r.Off),
			})
		}
	}
	res, err := f.store.WriteExtents("tcio: drain", trace.KindDrain, reqs)
	f.stats.Retries += res.Retries
	f.stats.FSWrites += res.Requests
	f.stats.FlushResidue += res.Requests
	f.settleWriteBehind()
	return err
}

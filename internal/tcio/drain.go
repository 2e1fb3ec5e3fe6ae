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

// popJob is one segment of a posted population and, with the sieve armed,
// the segment-relative runs its readers need.
type popJob struct {
	seg  int64
	runs []extent.Extent
}

// sieveArmed reports whether populations read only the needed runs, through
// the data sieve (DESIGN.md §2d). Without DemandPopulate the preload already
// reads every byte exactly once, so the knob is ignored.
func (f *File) sieveArmed() bool {
	return f.cfg.SieveBuffer > 0 && f.cfg.DemandPopulate
}

// segmentRuns converts one segment's queued reads into coalesced
// segment-relative runs — the byte set the fetch actually needs.
func segmentRuns(reqs []readReq, segSize int64) []extent.Extent {
	runs := make([]extent.Extent, len(reqs))
	for i, r := range reqs {
		runs[i] = extent.Extent{Off: r.off % segSize, Len: int64(len(r.dst))}
	}
	return extent.Coalesce(runs)
}

// populate is the read path's one population rule (DESIGN.md §2b): it posts
// the reads of the jobs' segments as one batch departing at the rank's
// present and marks each segment populated at its own landing. Nothing
// waits for the batch: a get of a segment leaves no earlier than its landing
// (issueGets), and a read Close waits for the latest landing this rank
// posted. A segment is read whole, clipped at EOF, or with the sieve armed
// only its needed runs not yet valid, through covers planned per segment. A
// segment this rank owns is read straight into its window slot; another
// owner's is read into staging and put there (land). The caller holds the
// exclusive window lock of every owner, or owns the slots outright (the
// preload, before Open's barrier), so the bytes are in the window before the
// flag is set.
func (f *File) populate(jobs []popJob) error {
	start, size := f.c.Now(), f.store.File().Size()
	whole := []extent.Extent{{Len: f.layout.SegSize}}
	var reqs []storage.Request
	for _, j := range jobs {
		runs := whole
		if f.sieveArmed() {
			if runs = f.meta.missingRuns(j.seg, j.runs); len(runs) == 0 {
				continue
			}
		}
		owner, slot := f.layout.Owner(j.seg)
		local := owner == f.c.Rank()
		// buf is the segment's bytes: its window slot when this rank owns it,
		// else the session's staging, packed in run order for one put.
		var buf []byte
		if local {
			buf = f.win.Local()[slot*f.layout.SegSize : (slot+1)*f.layout.SegSize]
		} else {
			buf = f.stagingBuf(f.layout.SegSize)
		}
		base := f.layout.SegStart(j.seg)
		reqs = reqs[:0]
		var packed int64
		for _, r := range runs {
			// A run at or past EOF reads nothing: the window's zeros are what
			// the (hole-extended) file holds.
			n := min(r.End(), size-base) - r.Off
			if n <= 0 {
				continue
			}
			dst := buf[r.Off : r.Off+n]
			if !local {
				dst, packed = buf[packed:packed+n], packed+n
			}
			reqs = append(reqs, storage.Request{Off: base + r.Off, Data: dst, Tag: fmt.Sprintf("seg=%d off=%d", j.seg, base+r.Off)})
		}
		var landed simtime.Time
		if len(reqs) > 0 {
			var err error
			if landed, err = f.readPosted(reqs, start); err != nil {
				return err
			}
			if !local {
				if landed, err = f.land(owner, slot, base, reqs, buf[:packed], landed); err != nil {
					return err
				}
			}
		}
		if f.sieveArmed() {
			f.meta.addPopRuns(j.seg, runs, f.layout.SegSize, landed)
		} else {
			f.meta.setPopulated(j.seg, landed)
		}
		f.landed = max(f.landed, landed)
	}
	return nil
}

// readPosted issues one segment's reads departing at start — the whole
// segment, or the sieve's covers of its runs — and returns their latest
// completion. Reads posted at one start are one batch at the file system.
func (f *File) readPosted(reqs []storage.Request, start simtime.Time) (simtime.Time, error) {
	if f.sieveArmed() {
		// Sieved stagings are partial: they count as covers, not populations.
		res, end, err := f.store.ReadExtentsSievedFrom("tcio: sieve", reqs, f.cfg.SieveBuffer, start)
		f.stats.Retries += res.Retries
		f.stats.SieveReads += res.Requests
		f.stats.SieveWasteBytes += res.Waste
		return end, err
	}
	res, end, err := f.store.ReadExtentsFrom("tcio: populate", trace.KindPopulate, reqs, start)
	f.stats.Retries += res.Retries
	f.stats.Populations += res.Requests
	return end, err
}

// land puts what this rank read for another owner's segment into that
// owner's window: reqs are the reads, data their bytes packed in the same
// order, done their completion. The put is issued now and timed like a get
// floored at done (Win.GetSegmentsAsync): the network sees it at its issue,
// and it arrives done − departure later when its bytes were still landing as
// it left. land returns that arrival, the segment's landing.
func (f *File) land(owner int, slot, base int64, reqs []storage.Request, data []byte, done simtime.Time) (simtime.Time, error) {
	if mutate.Enabled(mutate.TCIOStalePopulate) {
		return done, nil
	}
	runs := f.winRunsScratch[:0]
	for _, r := range reqs {
		runs = append(runs, extent.Extent{Off: slot*f.layout.SegSize + r.Off - base, Len: int64(len(r.Data))})
	}
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
	var jobs []popJob
	size := f.store.File().Size()
	f.preloaded = size
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		if f.layout.SegStart(seg) >= size {
			break
		}
		jobs = append(jobs, popJob{seg: seg})
	}
	if err := f.populate(jobs); err != nil {
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

package tcio

// The sieved demand-populate path (DESIGN.md §2d): instead of loading a
// whole level-2 segment on first touch, Fetch stages only the runs its
// queued reads actually need, handing them to the storage layer's
// data-sieving planner (storage.ReadExtentsSieved) so nearby runs collapse
// under covering reads of at most Config.SieveBuffer bytes. Partially
// staged segments are tracked in l2meta.popRuns; later fetches stage only
// what is still missing, and a segment whose runs grow to cover the whole
// window is promoted to fully populated.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/storage"
)

// sieveArmed reports whether demand populations go through the sieve.
// Without DemandPopulate the preload already reads every byte exactly
// once, so the knob is ignored.
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

// sievePopulate stages the needed runs of one segment into the owner's
// window through the data sieve. The caller must hold the owner's
// exclusive window lock. Runs already staged by an earlier sieve, and runs
// freshly written into the window (dirty — newer than the file), are
// skipped; the sieve must never overwrite them with file bytes. It does
// not bump Stats.Populations: that counter means whole-segment loads, and
// the oracle over it becomes an upper bound when sieving is armed.
func (f *File) sievePopulate(seg int64, owner int, slot int64, needed []extent.Extent) error {
	missing := f.meta.missingRuns(seg, needed)
	if len(missing) == 0 {
		return nil
	}
	base := f.layout.SegStart(seg)
	size := f.store.File().Size()
	// Clamp to the file: a run at or past EOF reads nothing — the window
	// bytes are already zero, exactly what the (hole-extended) file holds —
	// but is still recorded below so it is not re-fetched.
	reads := make([]extent.Extent, 0, len(missing))
	for _, r := range missing {
		lo, hi := base+r.Off, base+r.End()
		if lo >= size {
			continue
		}
		if hi > size {
			hi = size
		}
		reads = append(reads, extent.Extent{Off: lo - base, Len: hi - lo})
	}
	if len(reads) > 0 {
		// Reused staging, like populate's: the missing runs of one segment
		// total at most segSize bytes, packed back to back in run order.
		buf := f.stagingBuf(f.layout.SegSize)
		reqs := make([]storage.Request, len(reads))
		var at int64
		for i, r := range reads {
			reqs[i] = storage.Request{
				Off:  base + r.Off,
				Data: buf[at : at+r.Len],
				Tag:  fmt.Sprintf("seg=%d off=%d (sieve)", seg, base+r.Off),
			}
			at += r.Len
		}
		res, err := f.store.ReadExtentsSieved("tcio: sieve", reqs, f.cfg.SieveBuffer)
		f.stats.Retries += res.Retries
		f.stats.SieveReads += res.Requests
		f.stats.SieveWasteBytes += res.Waste
		if err != nil {
			return err
		}
		winRuns := make([]extent.Extent, len(reads))
		for i, r := range reads {
			winRuns[i] = extent.Extent{Off: slot*f.layout.SegSize + r.Off, Len: r.Len}
		}
		if err := f.win.PutSegments(owner, winRuns, buf[:at]); err != nil {
			return err
		}
	}
	f.meta.addPopRuns(seg, missing, f.layout.SegSize)
	return nil
}

package tcio

// The write-behind pipeline: eager background drains of level-2 segments
// whose undrained runs already cover them (Config.WriteBehind), so
// Flush/Close only wait for the residue. The queue is virtual: batches are
// issued physically in rank program order through the storage layer's
// detached-start path, charged to background timelines (up to
// writeBehindQueue in flight, overlapping across OSTs as the requests of
// one posted batch do), and synchronized with only at backpressure
// and at the final drain. Request identity (node, offset, length, attempt)
// is exactly what the synchronous drain would issue, so chaos counts cannot
// tell the two apart.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// maybeWriteBehind scans this rank's own segments after each shipment and
// eagerly drains any whose undrained runs cover the whole segment.
// Only the owner drains a segment, so the single-writer-per-stripe locking
// discipline of the synchronous drain is preserved.
func (f *File) maybeWriteBehind() error {
	if !f.cfg.WriteBehind || f.mode != WriteMode {
		return nil
	}
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		runs, arrival := f.meta.takeCovered(seg, f.layout.SegSize)
		if len(runs) == 0 {
			continue
		}
		if err := f.eagerDrain(seg, slot, runs, arrival); err != nil {
			return err
		}
	}
	return nil
}

// eagerDrain enqueues one segment's runs onto the background drain queue:
// up to writeBehindQueue batches may be in flight at once, each departing
// at the rank's current instant and completing on its own background
// timeline (the per-OST service queues arbitrate genuine contention). The
// caller's clock waits only when the queue is full — backpressure — and at
// the final drain.
func (f *File) eagerDrain(seg, slot int64, runs []extent.Extent, arrival simtime.Time) error {
	// Bounded queue: wait for the earliest in-flight batch when full.
	for len(f.wbOutstanding) >= writeBehindQueue {
		i := 0
		for j, t := range f.wbOutstanding {
			if t < f.wbOutstanding[i] {
				i = j
			}
		}
		f.wbWait(f.wbOutstanding[i])
		f.wbOutstanding = append(f.wbOutstanding[:i], f.wbOutstanding[i+1:]...)
	}
	base := f.layout.SegStart(seg)
	reqs := make([]storage.Request, 0, len(runs))
	// The session's staging buffer holds the whole batch's snapshots: the
	// detached-start write below moves every byte physically before
	// returning (only its completion time is deferred), so the buffer is
	// free again for the next batch. The runs are coalesced within one
	// segment, so they always fit. Plain memory — not a fault site, see
	// populate — so reuse cannot shift any alloc roll.
	arena := f.stagingBuf(f.layout.SegSize)
	used := int64(0)
	for _, r := range runs {
		// Snapshot the run's bytes under the window's data mutex: remote
		// rewrite puts may be physically copying into this very region.
		// A rewrite's runs re-enter pending and drain again, so whichever
		// version the snapshot catches, the last bytes still win.
		dst := arena[used : used+r.Len]
		used += r.Len
		f.win.SnapshotLocalInto(dst, slot*f.layout.SegSize+r.Off)
		reqs = append(reqs, storage.Request{
			Off:  base + r.Off,
			Data: dst,
			Tag:  fmt.Sprintf("seg=%d off=%d (write-behind)", seg, base+r.Off),
		})
	}
	// The runs being drained were put into this window by their origins
	// (remote ranks and this rank alike), and in virtual time the bytes are
	// not here until those puts retire at the target: depart the batch no
	// earlier than the latest arrival recorded with the runs in l2meta.
	start := simtime.Max(f.c.Now(), arrival)
	res, end, err := f.store.WriteExtentsFrom("tcio: write-behind", trace.KindDrain, reqs, start)
	f.stats.Retries += res.Retries
	f.stats.FSWrites += res.Requests
	if !mutate.Enabled(mutate.TCIOEagerWritesUncounted) {
		f.stats.EagerWrites += res.Requests
	}
	if err != nil {
		return err
	}
	f.wbBusy += end.Sub(start)
	if end > f.wbLaneFree {
		f.wbLaneFree = end
	}
	f.wbOutstanding = append(f.wbOutstanding, end)
	f.stats.EagerDrains++
	return nil
}

// wbWait synchronizes the rank's clock with a background completion time,
// charging only the part not already hidden behind the application.
func (f *File) wbWait(t simtime.Time) {
	if now := f.c.Now(); t > now {
		f.wbWaited += t.Sub(now)
		f.c.AdvanceTo(t)
	}
}

// settleWriteBehind waits out the background lane at the final drain and
// folds the lane's accounting into Stats.OverlapSaved.
func (f *File) settleWriteBehind() {
	f.wbWait(f.wbLaneFree)
	f.wbOutstanding = f.wbOutstanding[:0]
	saved := f.wbBusy - f.wbWaited
	if saved < 0 {
		saved = 0
	}
	f.stats.OverlapSaved = saved
}

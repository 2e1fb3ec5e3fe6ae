package tcio

// The file system side of TCIO: populating level-2 segments from the file
// (reads) and draining dirty runs back to it (writes). All transfers go
// through the storage layer, which batches retry handling, tracing, and
// virtual-time charging, and posts each batch to the file system as one
// list-I/O request.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// segSpan returns where a global segment starts in the file and how many of
// its bytes the file holds: the whole segment, clipped at EOF (n <= 0 when
// the segment lies wholly past it).
func (f *File) segSpan(seg int64) (base, n int64) {
	base, n = f.layout.SegStart(seg), f.layout.SegSize
	if size := f.store.File().Size(); base+n > size {
		n = size - base
	}
	return base, n
}

// populate loads one whole segment from the file system into its owner's
// window — the aggregated read that makes TCIO's read path collective in
// effect. The caller must hold the owner's exclusive window lock.
func (f *File) populate(seg int64, owner int, slot int64) error {
	base, n := f.segSpan(seg)
	if n <= 0 {
		f.meta.setPopulated(seg, 0)
		return nil
	}
	// Reused staging: both the file system read and the window put move
	// their bytes physically before returning, so the session's staging
	// buffer serves every population this rank performs. Plain memory, like
	// the per-call allocation it replaces: never charged to the
	// simulated-memory accountant (only Malloc/Reserve roll SiteMemAlloc), so
	// the per-rank allocation fault stream is unchanged.
	buf := f.stagingBuf(n)
	res, err := f.store.ReadExtents("tcio: populate", trace.KindPopulate,
		[]storage.Request{{Off: base, Data: buf, Tag: fmt.Sprintf("seg=%d", seg)}})
	f.stats.Retries += res.Retries
	if err != nil {
		return err
	}
	if err := f.win.PutSegments(owner, []extent.Extent{{Off: slot * f.layout.SegSize, Len: n}}, buf); err != nil {
		return err
	}
	f.meta.setPopulated(seg, 0)
	f.stats.Populations++
	return nil
}

// preloadAll posts the load of every local slot that overlaps the file —
// the default read population. Each rank reads only its own segments, so the
// file system sees P large disjoint requests, each rank's posted as one
// storage batch at the rank's present. Open does not wait for the batch: each
// segment is marked populated with its own landing instant, a get of it
// starts no earlier (issueGets), and Close waits for the whole batch before
// the window is freed.
func (f *File) preloadAll() error {
	local := f.win.Local()
	var reqs []storage.Request
	var segs []int64
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		base, n := f.segSpan(seg)
		if n <= 0 {
			break
		}
		reqs = append(reqs, storage.Request{
			Off:  base,
			Data: local[slot*f.layout.SegSize : slot*f.layout.SegSize+n],
			Tag:  fmt.Sprintf("seg=%d (preload)", seg),
		})
		segs = append(segs, seg)
	}
	done := make([]simtime.Time, len(reqs))
	res, err := f.store.ReadExtentsEach("tcio: preload", trace.KindPopulate, reqs, f.c.Now(), done)
	f.stats.Retries += res.Retries
	f.stats.Populations += res.Requests
	if err != nil {
		return err
	}
	for i, seg := range segs {
		f.meta.setPopulated(seg, done[i])
		f.preloadEnd = max(f.preloadEnd, done[i])
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

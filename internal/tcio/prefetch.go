package tcio

// The read-prefetch pipeline: when Fetch walks forward-consecutive
// segments in demand-populate mode, the upcoming segment reads are issued
// on a background lane through the storage layer's detached-start path and
// staged in a map keyed by segment, so the file system time of segment k+1
// hides behind the window traffic of segment k. Only segments the batch
// already demands are read — never speculative ones — and they are issued
// in the same per-rank order the demand loop would use.
//
// The map is the in-flight lookahead, not a cache: step i of a batch stages
// only positions i+1..i+PrefetchSegments, and the fetch loop takes or drops
// every staged segment when it reaches it, so the map never holds more than
// PrefetchSegments entries and is empty when the batch ends. Nothing is
// ever evicted, and there is no capacity to configure.
//
// Determinism caveat: when ranks' demand sets are disjoint (each rank
// reads its own region — the case the bench and the CI two-run diff
// validate), the per-rank request stream and every fault roll are
// identical at any PrefetchSegments setting. When ranks contend for the
// same segments, a prefetched read can be wasted — another rank populates
// the segment between the isPopulated check and the Fetch step that would
// consume the staged bytes — and that read is one the demand path would
// never have issued, so request sets and chaos fault rolls may differ
// across prefetch settings. Stats.PrefetchWasted makes the divergence
// visible; DESIGN.md §2b states the full argument.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/trace"
)

// prefetchEntry is one staged segment: its bytes and the background-lane
// instant they are complete.
type prefetchEntry struct {
	data  []byte
	ready simtime.Time
}

// maybePrefetch looks ahead from position i of the fetch batch and issues
// background reads for up to PrefetchSegments forward-consecutive
// segments (none when prefetch is off). A break in the sequence stops the
// lookahead — the pipeline only feeds genuinely sequential access.
func (f *File) maybePrefetch(batch []segGroup, i int) error {
	prev := batch[i].seg
	for j := i + 1; j < len(batch) && j <= i+f.cfg.PrefetchSegments; j++ {
		seg := batch[j].seg
		if seg != prev+1 {
			return nil
		}
		prev = seg
		if f.meta.isPopulated(seg) {
			continue
		}
		if _, ok := f.prefetched[seg]; ok {
			continue
		}
		if err := f.prefetchSegment(seg); err != nil {
			return err
		}
	}
	return nil
}

// prefetchSegment starts one whole-segment read on the background lane and
// stages the bytes. The request is byte-for-byte the one populate would
// issue for this segment, from this rank, in this order.
func (f *File) prefetchSegment(seg int64) error {
	base, n := f.segSpan(seg)
	if n <= 0 {
		return nil
	}
	// Plain staging memory, like populate's scratch buffer: outside the
	// simulated-memory accountant so the staging cannot shift the per-rank
	// allocation fault stream.
	buf := make([]byte, n)
	start := simtime.Max(f.c.Now(), f.pfLaneFree)
	res, end, err := f.store.ReadExtentsFrom("tcio: prefetch", trace.KindPrefetch,
		[]storage.Request{{Off: base, Data: buf, Tag: fmt.Sprintf("seg=%d (prefetch)", seg)}}, start)
	f.stats.Retries += res.Retries
	if err != nil {
		return err
	}
	f.pfLaneFree = end
	f.prefetched[seg] = &prefetchEntry{data: buf, ready: end}
	f.stats.PrefetchIssued++
	return nil
}

// takePrefetched removes and returns the staged entry for seg, if any (never
// one with prefetch off: the map is nil).
func (f *File) takePrefetched(seg int64) (*prefetchEntry, bool) {
	e, ok := f.prefetched[seg]
	delete(f.prefetched, seg)
	return e, ok
}

// dropWastedPrefetch discards a staged segment another rank populated
// first — the read was real, the staging no longer needed.
func (f *File) dropWastedPrefetch(seg int64) {
	if _, ok := f.takePrefetched(seg); ok {
		f.stats.PrefetchWasted++
	}
}

// populateFromCache fills the owner's window slot from a staged prefetch
// instead of a synchronous file system read. The caller must hold the
// owner's exclusive window lock. The rank waits only for the part of the
// background read not already hidden behind its other work.
func (f *File) populateFromCache(seg int64, owner int, slot int64, e *prefetchEntry) error {
	f.c.AdvanceTo(e.ready)
	if len(e.data) > 0 && !mutate.Enabled(mutate.TCIOStalePrefetchServe) {
		if err := f.win.PutSegments(owner,
			[]extent.Extent{{Off: slot * f.layout.SegSize, Len: int64(len(e.data))}}, e.data); err != nil {
			return err
		}
	}
	f.meta.setPopulated(seg, 0)
	f.stats.Populations++
	f.stats.PrefetchHits++
	return nil
}

package tcio

// The lazy read path (paper §IV.B): Read/ReadAt only record destination
// buffers; Fetch posts whatever population its batch still needs and then
// performs the real one-sided gets, batched per owner so the epochs'
// transfer waits overlap.

import (
	"fmt"
	"slices"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
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
	if count < 0 {
		return fmt.Errorf("tcio: ReadTyped of %d elements", count)
	}
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
	return f.pieces(off, int64(len(dst)), func(seg, _, at, n int64) error {
		// The fetchBatch rule: past the batch, move the queued data first.
		if f.pendingSeg != seg {
			f.pendingSwitches++
			f.pendingSeg = seg
			if f.pendingSwitches > fetchBatch {
				if err := f.Fetch(); err != nil {
					return err
				}
				f.pendingSwitches = 1
				f.pendingSeg = seg
			}
		}
		f.c.Compute(f.pieceCharge(at))
		f.pending = append(f.pending, readReq{off: off + at, dst: dst[at : at+n]})
		return nil
	})
}

// Fetch completes all recorded lazy reads (tcio_fetch). It is independent:
// only the calling rank participates. The batch's unpopulated segments are
// posted first (populateBatch), then gets for all queued segments are
// issued asynchronously under concurrently held shared window locks — one
// epoch per owner — so their wire times overlap instead of serializing.
func (f *File) Fetch() error {
	if f.closed {
		return ErrClosed
	}
	if len(f.pending) == 0 {
		f.pendingSeg = -1
		f.pendingSwitches = 0
		f.runPostFetch()
		return nil
	}
	groups := f.groupPending()
	if err := f.populateBatch(groups); err != nil {
		return err
	}
	return f.fetchGets(groups)
}

// populateBatch posts the population of every segment of the batch that no
// rank has populated yet (only possible in demand mode; the default preloads
// at Open) as one batch. It holds the owners' exclusive window locks across
// the post, not the landing — the gets that follow wait for the landings —
// and checks each segment again under them, so no segment is read twice.
func (f *File) populateBatch(groups []segGroup) error {
	segs := f.fetch.segs[:0]
	for _, g := range groups {
		if !f.populated(g.seg) {
			segs = append(segs, g.seg)
		}
	}
	f.fetch.segs = segs[:0]
	if len(segs) == 0 {
		return nil
	}
	owners := f.fetch.owners[:0]
	for _, seg := range segs {
		owners = f.withOwner(owners, seg)
	}
	f.fetch.owners = owners[:0]
	if err := f.lockOwners(owners, true); err != nil {
		return err
	}
	live := segs[:0]
	for _, seg := range segs {
		if !f.meta.isPopulated(seg) { // another rank may have come first
			live = append(live, seg)
		}
	}
	err := f.populate(live)
	if uerr := f.unlockOwners(owners); err == nil {
		err = uerr
	}
	return err
}

// populated reports whether seg's window bytes are valid. A segment starting
// below the size the read Open preloaded up to is, and needs no look at
// l2meta; past it the segment's record says.
func (f *File) populated(seg int64) bool {
	return f.layout.SegStart(seg) < f.preloaded || f.meta.isPopulated(seg)
}

// withOwner appends seg's owner to owners unless it is listed already. A
// batch holds at most fetchBatch segments, so the scan is short.
func (f *File) withOwner(owners []int, seg int64) []int {
	if owner, _ := f.layout.Owner(seg); !slices.Contains(owners, owner) {
		return append(owners, owner)
	}
	return owners
}

// lockOwners locks every owner in ascending rank order, whatever order they
// are listed in: one global order for every multi-lock acquisition of the
// read path, so no two fetches can each hold a lock the other waits for.
// On an error it releases the locks it took.
func (f *File) lockOwners(owners []int, exclusive bool) error {
	sorted := append(f.fetch.sorted[:0], owners...)
	slices.Sort(sorted)
	f.fetch.sorted = sorted[:0]
	for i, owner := range sorted {
		if err := f.win.Lock(owner, exclusive); err != nil {
			f.unlockOwners(sorted[:i])
			return err
		}
	}
	return nil
}

// unlockOwners unlocks every owner in the order listed and reports the first
// error; every lock is released whatever fails.
func (f *File) unlockOwners(owners []int) error {
	var err error
	for _, owner := range owners {
		if uerr := f.win.Unlock(owner); uerr != nil && err == nil {
			err = uerr
		}
	}
	return err
}

// fetchScratch is a handle's scratch for the fetch hot path, reused across
// batches: the queue grouped by segment (and each read's group while it is
// being placed), the owners locked and their lock order, the segments left
// to populate, and the arena the batch's gets land in. It sits behind a
// pointer, made by the first fetch, to keep session — which Open and
// newSession pass by value on every rank's stack — small.
type fetchScratch struct {
	grouped []readReq
	groups  []segGroup
	idx     []int32
	owners  []int
	sorted  []int
	segs    []int64
	arena   []byte
}

// segGroup is one segment's share of a fetch batch: its queued reads, in
// queue order.
type segGroup struct {
	seg  int64
	n    int       // reads counted for the segment, before they are placed
	reqs []readReq // a slice of the handle's grouped scratch
}

// groupPending groups the queued lazy reads by global segment, in first-
// appearance order (requests may span several segments when a single
// ReadAt crossed a boundary), and resets the queue. It is a counting sort
// into per-handle scratch, so the groups are valid until the next call. A
// segment is searched for among the groups only where the queue switches
// segments, and the fetchBatch rule bounds both the switches and the groups.
func (f *File) groupPending() []segGroup {
	if f.fetch == nil {
		f.fetch = new(fetchScratch)
	}
	fs := f.fetch
	// Sized up front (pendingSwitches bounds the groups), so a handle that
	// fetches once does not pay for append's doubling.
	groups := slices.Grow(fs.groups[:0], f.pendingSwitches)
	idx := slices.Grow(fs.idx[:0], len(f.pending))
	g := -1
	for _, r := range f.pending {
		seg := f.layout.Segment(r.off)
		if g < 0 || groups[g].seg != seg {
			for g = len(groups) - 1; g >= 0 && groups[g].seg != seg; g-- {
			}
			if g < 0 {
				g = len(groups)
				groups = append(groups, segGroup{seg: seg})
			}
		}
		groups[g].n++
		idx = append(idx, int32(g))
	}
	fs.grouped = slices.Grow(fs.grouped[:0], len(f.pending))
	at := 0
	for i := range groups {
		g := &groups[i]
		g.reqs = fs.grouped[at : at : at+g.n]
		at += g.n
	}
	for i, r := range f.pending {
		g := &groups[idx[i]]
		g.reqs = append(g.reqs, r)
	}
	fs.groups, fs.idx = groups, idx
	f.pending = f.pending[:0]
	f.pendingSeg = -1
	f.pendingSwitches = 0
	return groups
}

// fetchGets is the fetch's data-movement phase: shared-lock each owner once,
// issue every segment's get asynchronously, then unlock — Unlock
// synchronizes with the epoch's transfers, so the waits overlap across
// owners and segments.
//
// Every owner is locked (lockOwners) before any get is issued, and the
// epochs close in the owners' first-appearance order. The gets land back to
// back, in group order, in one arena the handle owns and reuses; its bytes
// are read only by the scatter below, after the unlocks that complete them.
// Whatever fails, every lock taken here is released before returning.
func (f *File) fetchGets(groups []segGroup) error {
	if len(groups) == 0 {
		f.runPostFetch()
		return nil
	}
	owners := f.fetch.owners[:0]
	for _, g := range groups {
		owners = f.withOwner(owners, g.seg)
	}
	f.fetch.owners = owners[:0]
	if err := f.lockOwners(owners, false); err != nil {
		return err
	}
	err := f.issueGets(groups)
	if uerr := f.unlockOwners(owners); err == nil {
		err = uerr
	}
	if err != nil {
		return err
	}
	// All epochs are closed: every get's data is complete. Scatter it.
	fetchStart := f.c.Now()
	at := 0
	for _, g := range groups {
		for _, r := range g.reqs {
			at += copy(r.dst, f.fetch.arena[at:])
		}
	}
	if f.tracing() {
		f.emit(trace.KindFetch, fetchStart, int64(at), fmt.Sprintf("segments=%d", len(groups)))
	}
	f.runPostFetch()
	return nil
}

// issueGets issues one asynchronous indexed get per group, under the shared
// locks fetchGets holds. The fetch arena is sized to the batch first, so
// every get appends in place, right after the one before it. A get leaves
// its owner when its segment has landed (l2meta.arrivalOf): no clock waits
// for a posted population, and the origin's waits only at Unlock.
func (f *File) issueGets(groups []segGroup) error {
	total := 0
	for _, g := range groups {
		for _, r := range g.reqs {
			total += len(r.dst)
		}
	}
	arena := slices.Grow(f.fetch.arena[:0], total)[:total]
	f.fetch.arena = arena
	at := 0
	for _, g := range groups {
		owner, slot := f.layout.Owner(g.seg)
		runs := slices.Grow(f.winRunsScratch[:0], len(g.reqs))
		dst := arena[at:at]
		for _, r := range g.reqs {
			runs = append(runs, extent.Extent{Off: slot*f.layout.SegSize + r.off%f.layout.SegSize, Len: int64(len(r.dst))})
			at += len(r.dst)
		}
		f.winRunsScratch = runs[:0]
		if _, err := f.win.GetSegmentsAsync(owner, runs, dst, f.meta.arrivalOf(g.seg)); err != nil {
			return err
		}
		f.stats.Gets++
	}
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

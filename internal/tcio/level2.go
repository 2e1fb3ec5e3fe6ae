package tcio

// The level-2 layer (paper §IV.A): segments exposed through an MPI
// one-sided window, addressed by the round-robin mapping of equations
// (1)-(3), and fed by passive-target puts whose epochs pipeline up to
// pipelineDepth.

import (
	"errors"
	"fmt"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// l2meta is the bookkeeping shared by all ranks of one TCIO file: which
// parts of each global segment hold buffered data (dirty, writes), which of
// those runs have not reached the file system yet (pending — the write-
// behind lane consumes them), and which segments have been populated from
// the file system (reads).
//
// It is one record per global segment, indexed by the segment's number:
// the P × NumSegments records are allocated at Open, each with its own
// mutex, so an operation is an index and one uncontended lock, and ranks
// shipping to different segments never meet. Every caller passed the
// layout's range check (pieces), so the index is in bounds. A record costs
// well under the window bytes of the one segment it describes.
type l2meta struct {
	journal bool // arm the unlogged-run bookkeeping the epoch log consumes
	segs    []segState
}

// segState is everything the file knows about one global segment. The
// take-operations hand their slice to the caller and clear the field. All
// run lists are segment-relative and coalesced.
type segState struct {
	mu      sync.Mutex
	dirty   []extent.Extent // runs holding buffered data
	pending []extent.Extent // dirty runs not yet drained
	// arrival is when the segment's newest bytes are in the owner's window
	// in virtual time; nothing may move them out before it. On a write
	// handle it is the latest put arrival among the pending runs, recorded
	// by the origin at issue (it knows the handle's arrival) and consumed
	// with the runs by whoever drains them. On a read handle it is when the
	// segment's posted population lands in the owner's window (populate),
	// and a get of the segment starts no earlier.
	arrival simtime.Time
	// unlogged is the dirty runs the owner's journal has not recorded yet;
	// journalEpoch consumes them at each Flush/Close. Always empty when the
	// journal tier is disarmed, so the unjournaled write path does zero
	// extra bookkeeping.
	unlogged  []extent.Extent
	populated bool
}

// newL2Meta builds empty shared metadata for an open file of segs global
// segments. journal arms the unlogged-run bookkeeping the epoch log
// consumes.
func newL2Meta(segs int64, journal bool) *l2meta {
	return &l2meta{journal: journal, segs: make([]segState, segs)}
}

// lock locks and returns the segment's record; the caller unlocks it.
func (m *l2meta) lock(seg int64) *segState {
	st := &m.segs[seg]
	st.mu.Lock()
	return st
}

// addDirty records freshly shipped runs and the virtual time their put
// retires at the target, so a drain consuming them can respect causality.
func (m *l2meta) addDirty(seg int64, runs []extent.Extent, at simtime.Time) {
	st := m.lock(seg)
	defer st.mu.Unlock()
	st.dirty = extent.Coalesce(append(st.dirty, runs...))
	if mutate.Enabled(mutate.TCIOLostPendingRun) {
		st.pending = extent.Coalesce(append([]extent.Extent(nil), runs...))
	} else {
		st.pending = extent.Coalesce(append(st.pending, runs...))
	}
	if at > st.arrival {
		st.arrival = at
	}
	if m.journal {
		st.unlogged = extent.Coalesce(append(st.unlogged, runs...))
	}
}

// takeUnlogged removes and returns the segment's not-yet-journaled runs
// (segment-relative). The owner consumes them at each journalEpoch.
func (m *l2meta) takeUnlogged(seg int64) []extent.Extent {
	st := m.lock(seg)
	defer st.mu.Unlock()
	runs := st.unlogged
	st.unlogged = nil
	return runs
}

func (m *l2meta) dirtyRuns(seg int64) []extent.Extent {
	st := m.lock(seg)
	defer st.mu.Unlock()
	return st.dirty
}

// hasPending reports whether the segment still has undrained runs — what
// separates a spill from a free drop when the segment budget evicts a slot.
func (m *l2meta) hasPending(seg int64) bool {
	st := m.lock(seg)
	defer st.mu.Unlock()
	return len(st.pending) > 0
}

// takePending removes and returns the segment's undrained runs and their
// latest put arrival. The final drain uses it directly; runs written after
// an eager drain re-enter pending, so rewrites are drained again and the
// last bytes always win.
func (m *l2meta) takePending(seg int64) ([]extent.Extent, simtime.Time) {
	return m.takeCovered(seg, 0)
}

// takeCovered is takePending gated on coverage: it removes and returns the
// undrained runs only when they total at least need bytes — the write-
// behind trigger, evaluated and consumed under one lock so two checks can
// never drain the same runs twice.
func (m *l2meta) takeCovered(seg int64, need int64) ([]extent.Extent, simtime.Time) {
	st := m.lock(seg)
	defer st.mu.Unlock()
	if extent.Total(st.pending) < need {
		return nil, 0
	}
	runs, at := st.pending, st.arrival
	st.pending, st.arrival = nil, 0
	return runs, at
}

func (m *l2meta) isPopulated(seg int64) bool {
	st := m.lock(seg)
	defer st.mu.Unlock()
	return st.populated
}

// setPopulated marks the segment's window bytes valid, landing at at (0 when
// they are in place already).
func (m *l2meta) setPopulated(seg int64, at simtime.Time) {
	st := m.lock(seg)
	defer st.mu.Unlock()
	st.populated = true
	if at > st.arrival {
		st.arrival = at
	}
}

// arrivalOf reports the segment's arrival: the floor of a get of it.
func (m *l2meta) arrivalOf(seg int64) simtime.Time {
	st := m.lock(seg)
	defer st.mu.Unlock()
	return st.arrival
}

// pieces is the layout's piece walk (extent.Layout.Pieces) bounded by the
// exposed slots: a piece past them is ErrCapacity.
func (f *File) pieces(off, n int64, fn func(seg, segOff, at, n int64) error) error {
	return f.layout.Pieces(off, n, func(seg, segOff, at, m int64) error {
		if !f.layout.InRange(seg) {
			_, slot := f.layout.Owner(seg)
			return fmt.Errorf("%w: offset %d needs slot %d of %d (raise NumSegments)",
				ErrCapacity, off+at, slot, f.layout.NumSeg)
		}
		return fn(seg, segOff, at, m)
	})
}

// pieceCharge is the library CPU of the piece at byte at of one application
// call. A scaled run stands for ByteScale times as many calls, not as many
// segment boundaries, so the call's first piece pays the scaled pieceCPU and
// each further piece of the same call the unscaled share: at ByteScale 1
// every piece pays pieceCPU.
func (f *File) pieceCharge(at int64) simtime.Duration {
	if at == 0 {
		return f.pieceCPU
	}
	return f.pieceCPU / simtime.Duration(f.c.Machine().ByteScale)
}

// ship is the one indexed put behind every level-1 shipment. It opens (or
// reuses) the shared epoch on the segment's owner, bounds the outstanding
// transfers, puts the segment-relative runs (coalesced, their bytes packed
// in payload) as one PutSegmentsAsync, and records them dirty with the
// put's arrival.
//
// A shared lock suffices: different ranks put into disjoint byte ranges of
// the segment (their own blocks), so concurrent epochs are safe. The epoch
// is left open (recorded in openOwners) so that successive flushes to the
// same owner pipeline; Flush and Close end all open epochs with one wave of
// unlocks whose completion waits overlap.
func (f *File) ship(seg int64, runs []extent.Extent, payload []byte) error {
	owner, slot := f.layout.Owner(seg)
	winRuns := f.winRunsScratch[:0]
	for _, r := range runs {
		winRuns = append(winRuns, extent.Extent{Off: slot*f.layout.SegSize + r.Off, Len: r.Len})
	}
	f.winRunsScratch = winRuns[:0]
	t0 := f.c.Now()
	if err := f.openEpochFor(owner); err != nil {
		return err
	}
	f.reserveInflight()
	t1 := f.c.Now()
	h, err := f.putSegmentsRetry(owner, seg, winRuns, payload)
	if err != nil {
		return err
	}
	f.inflight = append(f.inflight, h)
	f.stats.LockWait += t1.Sub(t0)
	f.stats.PutIssue += f.c.Now().Sub(t1)
	f.meta.addDirty(seg, runs, h.Arrival())
	f.stats.Level1Flush++
	if f.tracing() {
		f.emit(trace.KindFlush, t0, int64(len(payload)), fmt.Sprintf("seg=%d owner=%d runs=%d", seg, owner, len(runs)))
	}
	return f.maybeWriteBehind()
}

// openEpochFor ensures a shared put epoch is open on owner, touching the
// LRU order on reuse and evicting the coldest epoch when the pipeline
// window is full.
func (f *File) openEpochFor(owner int) error {
	if f.win.Held(owner) {
		// Reuse marks the epoch hot: move it to the back of the LRU order
		// so eviction hits the coldest target, not the hottest.
		f.touchEpoch(owner)
		return nil
	}
	// Bound the open epochs: evict the least-recently-used one once the
	// window is full.
	for len(f.openOwners) >= pipelineDepth {
		// Copy down instead of re-slicing from the front: the backing array
		// stays put, so the append below never re-allocates it.
		coldest := f.openOwners[0]
		f.openOwners = f.openOwners[:copy(f.openOwners, f.openOwners[1:])]
		f.stats.EpochEvictions++
		if err := f.win.Unlock(coldest); err != nil {
			return err
		}
	}
	if err := f.win.Lock(owner, false); err != nil {
		return err
	}
	f.openOwners = append(f.openOwners, owner)
	return nil
}

// reserveInflight bounds the outstanding transfers, independently of the
// epochs: the oldest Rput handle retires when the pipeline window is full.
func (f *File) reserveInflight() {
	for len(f.inflight) >= pipelineDepth {
		f.inflight[0].Complete()
		f.inflight = f.inflight[:copy(f.inflight, f.inflight[1:])]
	}
}

// touchEpoch moves owner to the most-recently-used end of openOwners.
func (f *File) touchEpoch(owner int) {
	for i, o := range f.openOwners {
		if o == owner {
			copy(f.openOwners[i:], f.openOwners[i+1:])
			f.openOwners[len(f.openOwners)-1] = owner
			return
		}
	}
}

// putSegmentsRetry issues one one-sided put, absorbing injected NIC
// work-request drops (faults.SiteWinPut) under the shared faults.Retry
// driver. The fault roll is keyed by this rank's shipment number so chaos
// runs replay exactly; each backoff burns virtual time on the origin, as a
// real sender re-posting a dropped work request would.
func (f *File) putSegmentsRetry(owner int, seg int64, runs []extent.Extent, payload []byte) (mpi.PutHandle, error) {
	inj := f.c.Faults()
	ship := f.shipCount
	f.shipCount++
	start := f.c.Now()
	var handle mpi.PutHandle
	end, retries, err := faults.Retry(start, f.retry,
		func(at simtime.Time, attempt int64) (simtime.Time, error) {
			f.c.AdvanceTo(at) // charge the preceding backoff, if any
			if inj.Should(faults.SiteWinPut, int64(f.c.Rank()), ship, attempt) {
				return f.c.Now(), inj.Fault(faults.SiteWinPut, "rank=%d seg=%d owner=%d",
					f.c.Rank(), seg, owner)
			}
			var perr error
			handle, perr = f.win.PutSegmentsAsync(owner, runs, payload)
			return f.c.Now(), perr
		})
	f.c.AdvanceTo(end)
	if retries > 0 {
		f.stats.Retries += retries
		f.emit(trace.KindRetry, start, 0,
			fmt.Sprintf("put seg=%d owner=%d retries=%d", seg, owner, retries))
	}
	if err != nil {
		return mpi.PutHandle{}, fmt.Errorf("tcio: ship segment %d to rank %d: %w", seg, owner, err)
	}
	return handle, nil
}

// closeEpochs unlocks every open put epoch; the unlock completions overlap.
// All unlock errors are reported, joined — under chaos, a failure on one
// target must not mask failures on the others.
func (f *File) closeEpochs() error {
	t0 := f.c.Now()
	var errs []error
	for _, owner := range f.openOwners {
		if err := f.win.Unlock(owner); err != nil {
			errs = append(errs, err)
		}
	}
	f.openOwners = f.openOwners[:0]
	f.inflight = f.inflight[:0] // unlocks completed every outstanding put
	f.stats.UnlockWait += f.c.Now().Sub(t0)
	return errors.Join(errs...)
}

package mpi

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// This file implements MPI-2 passive-target one-sided communication:
// windows, MPI_Win_lock / MPI_Win_unlock, MPI_Put / MPI_Get, and the
// indexed-datatype transfers TCIO uses to ship a whole level-1 buffer in a
// single network operation (§IV.A: "We use MPI_Type_indexed to combine
// multiple data blocks as one derived data type instance").
//
// The paper deliberately avoids MPI_Win_fence (a collective that would
// break TCIO's fully independent I/O calls) in favour of the lock-request
// paradigm; this runtime therefore provides per-target shared/exclusive
// window locks and no fence.

// winLock is one target's window lock. A rank that finds it held
// incompatibly parks until a release.
//
// Virtual-time semantics: exclusive epochs serialize against everything;
// shared epochs serialize only against exclusive epochs (readers do not
// chain behind each other). The handoff instant is the end of the holder's
// critical section — the time spent issuing operations — not the wire time
// of its transfers, which the NIC resources account separately; chaining
// wire time here would doubly serialize back-to-back epochs in a way real
// RDMA hardware does not.
type winLock struct {
	mu      sync.Mutex
	excl    bool
	shared  int
	waiters []int // parked ranks, all unparked by the next release
	// lastExcl / lastShared carry virtual time between epochs: when the
	// most recent exclusive (resp. shared) epoch handed off.
	lastExcl   simtime.Time
	lastShared simtime.Time
}

func (l *winLock) acquire(w *World, rank, target int, exclusive bool) (simtime.Time, error) {
	wt := wait{"lock", target, 0}
	if exclusive {
		wt.b = 1
	}
	l.mu.Lock()
	for l.excl || exclusive && l.shared > 0 {
		l.waiters = append(l.waiters, rank)
		if err := w.park(rank, wt, &l.mu); err != nil {
			return 0, err
		}
		l.mu.Lock()
	}
	defer l.mu.Unlock()
	if exclusive {
		l.excl = true
		return simtime.Max(l.lastExcl, l.lastShared), nil
	}
	l.shared++
	return l.lastExcl, nil
}

func (l *winLock) release(w *World, exclusive bool, at simtime.Time) {
	l.mu.Lock()
	if exclusive {
		l.excl, l.lastExcl = false, max(l.lastExcl, at)
	} else {
		if l.shared > 0 {
			l.shared--
		}
		l.lastShared = max(l.lastShared, at)
	}
	for _, r := range l.waiters {
		w.unpark(r, nil)
	}
	l.waiters = l.waiters[:0]
	l.mu.Unlock()
}

// winGlobal is the world-wide state of one window: every rank's exposed
// memory and per-target locks. datamu serializes the physical (real-time)
// copies into and out of each target's memory: the virtual-time epoch
// discipline orders transfers logically, but rewrite traffic means two
// goroutines can touch the same bytes at the same wall-clock instant.
type winGlobal struct {
	mems   []winMem
	datamu []sync.Mutex
	locks  []winLock
}

// winMem is one rank's exposed memory: size bytes in a table of equal pages
// of 1<<shift bytes, so a page index is a shift, not a divide; the last
// page may be shorter (pageLen). An absent (nil) page reads as zeros, and a
// put allocates it on its first write. A page Install set by reference is
// lent: the window never writes it in place, and a put copies it into a
// page of the window's own first. A page GivePageAsync set by reference is
// the window's own. WinCreate's memory is one page, shorter than
// 1<<onePage bytes.
type winMem struct {
	size  int64
	shift uint
	pages [][]byte
	lent  []bool // nil until the first Install by reference
}

// onePage is the shift of a window whose memory is one page, whatever its
// length: every offset falls in page 0.
const onePage = 62

// locate returns the page holding off and off's place in it.
func (m *winMem) locate(off int64) (int64, int64) {
	return off >> m.shift, off & (1<<m.shift - 1)
}

// read copies the bytes at off into dst, zeros where a page is absent.
func (m *winMem) read(dst []byte, off int64) {
	for len(dst) > 0 {
		i, in := m.locate(off)
		var n int
		if p := m.pages[i]; p != nil {
			n = copy(dst, p[in:])
		} else {
			n = int(min(int64(len(dst)), 1<<m.shift-in))
			clear(dst[:n])
		}
		dst, off = dst[n:], off+int64(n)
	}
}

// write copies data into the window at off.
func (m *winMem) write(off int64, data []byte) {
	for len(data) > 0 {
		i, in := m.locate(off)
		n := copy(m.own(i)[in:], data)
		data, off = data[n:], off+int64(n)
	}
}

// pageLen is the length of page i: 1<<shift, or what the window has left.
func (m *winMem) pageLen(i int64) int64 {
	return min(1<<m.shift, m.size-i<<m.shift)
}

// own returns page i to write in: allocated when absent, and copied into a
// page of the window's own when lent.
func (m *winMem) own(i int64) []byte {
	p := m.pages[i]
	if p == nil || m.lent != nil && m.lent[i] {
		n := m.pageLen(i)
		p = append(make([]byte, 0, n), p...)[:n]
		m.pages[i] = p
		if m.lent != nil {
			m.lent[i] = false
		}
	}
	return p
}

// give keeps page, the bytes at off, by reference as the window's own page
// when they are one whole page of a paged window, full length and in phase,
// that is absent or lent; it copies them otherwise. It reports whether it
// kept page.
func (m *winMem) give(off int64, page []byte) bool {
	i, in := m.locate(off)
	if m.shift == onePage || in != 0 || len(page) == 0 || int64(len(page)) != m.pageLen(i) ||
		m.pages[i] != nil && (m.lent == nil || !m.lent[i]) {
		m.write(off, page)
		return false
	}
	m.pages[i] = page
	if m.lent != nil {
		m.lent[i] = false
	}
	return true
}

// Win is one rank's handle on a window.
type Win struct {
	c *Comm
	g *winGlobal
	// held is this rank's open epochs, sorted by target and found by binary
	// search. A rank holds a few at a time, and a warm handle opens and
	// closes epochs allocation-free.
	held []heldLock
}

type heldLock struct {
	target     int
	exclusive  bool
	maxArrival simtime.Time // latest completion among this epoch's puts
}

// find returns the index of target's epoch in held, or where it would go.
// It is written out: slices.BinarySearchFunc, calling a comparison function
// per step, cost several times as much on the put and get paths.
func (w *Win) find(target int) (int, bool) {
	i, j := 0, len(w.held)
	for i < j {
		if m := int(uint(i+j) >> 1); w.held[m].target < target {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < len(w.held) && w.held[i].target == target
}

// perSegmentCPU is the local cost of describing one block in an indexed
// datatype (building the type, driving the scatter/gather engine).
const perSegmentCPU = 60 * simtime.Nanosecond

// WinCreate is collective: every rank contributes local as its exposed
// window memory and receives a handle. Window memory is read and written
// by remote ranks only between Lock and Unlock. local is the rank's page
// table as it stands — one page, not copied — so puts write into local and
// gets read from it.
func (c *Comm) WinCreate(local []byte) (*Win, error) {
	return c.winCreate(winMem{size: int64(len(local)), shift: onePage, pages: [][]byte{local}})
}

// WinCreatePaged is WinCreate for a rank that exposes size bytes in pages of
// page bytes, a power of two, every one absent: the window reads as zeros
// until puts fill it or Install lends it pages. It allocates only the page
// table.
func (c *Comm) WinCreatePaged(size, page int64) (*Win, error) {
	if size < 0 || page < 1 || page&(page-1) != 0 {
		return nil, fmt.Errorf("mpi: WinCreatePaged(%d, %d)", size, page)
	}
	shift := uint(bits.TrailingZeros64(uint64(page)))
	return c.winCreate(winMem{size: size, shift: shift, pages: make([][]byte, (size+page-1)>>shift)})
}

func (c *Comm) winCreate(m winMem) (*Win, error) {
	res, err := c.collect(m, func(vals []interface{}) interface{} {
		g := &winGlobal{
			mems:   make([]winMem, len(vals)),
			datamu: make([]sync.Mutex, len(vals)),
			locks:  make([]winLock, len(vals)),
		}
		for i, raw := range vals {
			g.mems[i] = raw.(winMem)
		}
		return g
	}, c.treeCost(16))
	if err != nil {
		return nil, err
	}
	return &Win{c: c, g: res.(*winGlobal)}, nil
}

// Local returns this rank's window memory by reference when it is one page
// — WinCreate's, or a WinCreatePaged window no longer than its page — and
// nil otherwise, or while that page is absent. It is a drain's owner-side
// access: the caller reads it only after every epoch that wrote it closed.
func (w *Win) Local() []byte {
	if m := &w.g.mems[w.c.rank]; len(m.pages) == 1 {
		return m.pages[0]
	}
	return nil
}

// Install sets this rank's own window bytes [off, off+n) to the bytes from
// skip on of src, a table of srcPage-byte pages (nil reads as zeros) lent
// by an owner that never writes them in place again (pfs.File.LendAtRetry).
// A window page the range covers whole, at src's page size and phase,
// becomes src's page by reference, lent; the rest is copied into pages of
// the window's own. Like SnapshotLocalInto it is an owner-side access
// outside any epoch, serialized against remote puts and gets, and charges
// nothing: a population lands in its own rank's slot with it.
func (w *Win) Install(off int64, src [][]byte, srcPage, skip, n int64) {
	mu := &w.g.datamu[w.c.rank]
	mu.Lock()
	defer mu.Unlock()
	m := &w.g.mems[w.c.rank]
	page := int64(1) << m.shift
	for n > 0 {
		i, in := m.locate(off)
		j, sin := skip/srcPage, skip%srcPage
		k := min(n, page-in, srcPage-sin)
		switch p := src[j]; {
		case k == page && srcPage == page:
			if m.lent == nil {
				m.lent = make([]bool, len(m.pages))
			}
			m.pages[i], m.lent[i] = p, p != nil
		case p != nil:
			copy(m.own(i)[in:in+k], p[sin:])
		case m.pages[i] != nil:
			clear(m.own(i)[in : in+k])
		}
		off, skip, n = off+k, skip+k, n-k
	}
}

// SnapshotLocalInto copies len(dst) bytes at off of this rank's own window
// memory into a caller-owned buffer, serialized against the physical copies
// of concurrent remote puts. Readers of window memory outside any access
// epoch (tcio's journal snapshots) use it instead of slicing Local(): a put
// landing mid-read would otherwise be a data race.
func (w *Win) SnapshotLocalInto(dst []byte, off int64) {
	mu := &w.g.datamu[w.c.rank]
	mu.Lock()
	w.g.mems[w.c.rank].read(dst, off)
	mu.Unlock()
}

// Lock opens an access epoch on target's window (MPI_Win_lock). exclusive
// corresponds to MPI_LOCK_EXCLUSIVE; otherwise MPI_LOCK_SHARED.
func (w *Win) Lock(target int, exclusive bool) error {
	if target < 0 || target >= len(w.g.mems) {
		return fmt.Errorf("mpi: Win.Lock target %d of %d", target, len(w.g.mems))
	}
	i, dup := w.find(target)
	if dup {
		return fmt.Errorf("mpi: Win.Lock target %d already locked by rank %d", target, w.c.rank)
	}
	w.c.w.touch(w.c.rank, "lock", w.c.clock().Now())
	prevRelease, err := w.g.locks[target].acquire(w.c.w, w.c.rank, target, exclusive)
	if err != nil {
		return err
	}
	// The lock request is a small round trip to the target node, and the
	// epoch cannot begin before the previous exclusive holder released.
	w.c.clock().AdvanceTo(prevRelease)
	net := w.c.w.machine.Net
	w.c.clock().Advance(2*net.Latency + net.SetupOneSided)
	w.held = append(w.held, heldLock{})
	copy(w.held[i+1:], w.held[i:])
	w.held[i] = heldLock{target: target, exclusive: exclusive}
	return nil
}

// Unlock closes the access epoch on target (MPI_Win_unlock). All of the
// epoch's puts and gets are complete, at both origin and target, when
// Unlock returns; the origin's clock advances accordingly. The lock itself
// hands off at the end of the critical section (operations issued), so
// successors queue behind the epoch's bookkeeping, not its wire time.
func (w *Win) Unlock(target int) error {
	i, ok := w.find(target)
	if !ok {
		return fmt.Errorf("mpi: Win.Unlock target %d not locked by rank %d", target, w.c.rank)
	}
	h := w.held[i]
	w.held = w.held[:i+copy(w.held[i:], w.held[i+1:])]
	net := w.c.w.machine.Net
	handoff := w.c.clock().Now().Add(net.Latency)
	w.c.clock().AdvanceTo(h.maxArrival)
	w.c.clock().Advance(net.Latency) // unlock notification
	w.g.locks[target].release(w.c.w, h.exclusive, handoff)
	return nil
}

// Held reports whether this rank currently holds a lock on target.
func (w *Win) Held(target int) bool {
	_, ok := w.find(target)
	return ok
}

// epoch returns the held-lock record, erroring when the caller skipped Lock.
// The record is valid until the next Lock or Unlock.
func (w *Win) epoch(target int, op string) (*heldLock, error) {
	i, ok := w.find(target)
	if !ok {
		return nil, fmt.Errorf("mpi: %s to target %d without holding its window lock", op, target)
	}
	return &w.held[i], nil
}

// Put copies data into target's window at offset off (MPI_Put). The
// operation is complete only after Unlock.
func (w *Win) Put(target int, off int64, data []byte) error {
	return w.PutSegments(target, []datatype.Segment{{Off: off, Len: int64(len(data))}}, data)
}

// PutSegments scatters data into target's window according to segs — the
// runtime equivalent of a single MPI_Put with an MPI_Type_indexed target
// datatype: one network transfer regardless of the number of blocks.
// data holds the blocks' bytes concatenated in segment order.
func (w *Win) PutSegments(target int, segs []datatype.Segment, data []byte) error {
	_, err := w.PutSegmentsAsync(target, segs, data)
	return err
}

// PutHandle is an in-flight request-based put (MPI_Rput): the origin may
// wait for this one transfer's local completion without closing the access
// epoch it was issued in. Unlock still completes every put of the epoch, so
// dropping a handle is always safe.
type PutHandle struct {
	c       *Comm
	arrival simtime.Time
}

// Complete waits (in virtual time) for the transfer to retire.
func (h PutHandle) Complete() { h.c.clock().AdvanceTo(h.arrival) }

// Arrival reports when the transfer retires at the target, without
// waiting. Pipelines that record where data will be use it to timestamp
// dependent work — tcio stores it with each dirty run so the owner never
// drains bytes before their virtual-time arrival.
func (h PutHandle) Arrival() simtime.Time { return h.arrival }

// PutSegmentsAsync is PutSegments returning an Rput-style handle, so a
// pipelined origin can bound its outstanding transfers by retiring the
// oldest handle instead of closing whole epochs.
func (w *Win) PutSegmentsAsync(target int, segs []datatype.Segment, data []byte) (PutHandle, error) {
	return w.put(target, segs, data, func(m *winMem) {
		pos := int64(0)
		for _, s := range segs {
			m.write(s.Off, data[pos:pos+s.Len])
			pos += s.Len
		}
	})
}

// GivePageAsync is PutSegmentsAsync of the one run page at off, for an
// origin that offers page up — the write-side mirror of Install. When the
// run is one whole page of target's WinCreatePaged window, full length and
// in phase, and that page is absent or lent, the window keeps page by
// reference as its own, later puts write into it in place, and kept is true:
// the origin must never read or write page again. Otherwise its bytes are
// copied and page stays the origin's. The charge, touch and transfer are
// PutSegmentsAsync's.
func (w *Win) GivePageAsync(target int, off int64, page []byte) (h PutHandle, kept bool, err error) {
	seg := [1]datatype.Segment{{Off: off, Len: int64(len(page))}}
	h, err = w.put(target, seg[:], page, func(m *winMem) { kept = m.give(off, page) })
	return h, kept, err
}

// put is one indexed put of data into target's window at segs: it checks
// the epoch and the segments, charges the origin the issue, runs scatter —
// the physical copy into the window — under the target's data mutex, then
// times the transfer and records its arrival against the epoch.
func (w *Win) put(target int, segs []datatype.Segment, data []byte, scatter func(m *winMem)) (PutHandle, error) {
	h, err := w.epoch(target, "Put")
	if err != nil {
		return PutHandle{}, err
	}
	m := &w.g.mems[target]
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Off+s.Len > m.size {
			return PutHandle{}, fmt.Errorf("mpi: Put segment [%d,%d) outside window of %d bytes", s.Off, s.Off+s.Len, m.size)
		}
		total += s.Len
	}
	if total != int64(len(data)) {
		return PutHandle{}, fmt.Errorf("mpi: Put %d bytes for segments totalling %d", len(data), total)
	}
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(segs))*perSegmentCPU)
	w.c.w.touch(w.c.rank, "put", depart)
	mu := &w.g.datamu[target]
	mu.Lock()
	scatter(m)
	mu.Unlock()
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(w.c.rank), w.c.w.machine.NodeOf(target),
		w.c.w.machine.Scale(total), depart, netsim.OneSided)
	h.maxArrival = max(h.maxArrival, arrival)
	return PutHandle{c: w.c, arrival: arrival}, nil
}

// Get copies n bytes from target's window at offset off (MPI_Get).
func (w *Win) Get(target int, off, n int64) ([]byte, error) {
	return w.GetSegments(target, []datatype.Segment{{Off: off, Len: n}})
}

// GetSegments gathers the given window segments of target into one dense
// buffer — a single MPI_Get with an indexed datatype, one network transfer.
// The caller's clock waits for the transfer (the data is needed on return).
func (w *Win) GetSegments(target int, segs []datatype.Segment) ([]byte, error) {
	h, err := w.GetSegmentsAsync(target, segs, nil, 0)
	if err != nil {
		return nil, err
	}
	return h.Complete(), nil
}

// GetHandle is an in-flight asynchronous get. Its data is guaranteed only
// after Complete or after unlocking the access epoch it was issued in, and
// it aliases the destination GetSegmentsAsync appended to: a caller that
// passed its own buffer owns the bytes and must not reuse that part of the
// buffer while it still reads them.
type GetHandle struct {
	c       *Comm
	data    []byte
	arrival simtime.Time
}

// Complete waits (in virtual time) for the transfer and returns the data.
func (h GetHandle) Complete() []byte {
	h.c.clock().AdvanceTo(h.arrival)
	return h.data
}

// GetSegmentsAsync issues a get without waiting for its wire time: the
// origin only pays the issue overhead now, and the epoch's Unlock (or the
// handle's Complete) synchronizes with the transfer. This is how an MPI
// program overlaps many gets within one lock epoch before a single
// MPI_Win_unlock. The gathered bytes are appended to dst (nil allocates
// exactly what the get needs), so a caller issuing many gets can land them
// all in one reused buffer.
//
// floor is when the target's bytes exist (a segment still landing from the
// file system); a get of settled bytes passes 0. A get issued before its
// floor completes floor − departure later than the same get of settled
// bytes: it takes the transfer it was issued into, port shares included, and
// starts it at the floor. The network sees every get at its issue, as it
// sees every put, so a fetch burst reaches the ports as one burst whatever
// the order the file system landed its segments in. The origin's clock does
// not wait for the floor.
func (w *Win) GetSegmentsAsync(target int, segs []datatype.Segment, dst []byte, floor simtime.Time) (GetHandle, error) {
	out := dst
	arrival, err := w.get(target, segs, floor, func(m *winMem, total int64) {
		out = slices.Grow(out, int(total))
		for _, s := range segs {
			n := len(out)
			out = out[:n+int(s.Len)]
			m.read(out[n:], s.Off)
		}
	})
	if err != nil {
		return GetHandle{}, err
	}
	return GetHandle{c: w.c, data: out[len(dst):], arrival: arrival}, nil
}

// GetSegmentsIntoAsync is GetSegmentsAsync with the origin side an indexed
// datatype too: segment i's bytes land in dst[i], which must be exactly
// segs[i].Len long, so the data is in the caller's buffers without a second
// copy. dst is written in order, so where two destinations overlap the
// later one's bytes win. The bytes are the caller's to read once the
// epoch's Unlock returns; the charge, transfer and floor are
// GetSegmentsAsync's.
func (w *Win) GetSegmentsIntoAsync(target int, segs []datatype.Segment, dst [][]byte, floor simtime.Time) error {
	if len(dst) != len(segs) {
		return fmt.Errorf("mpi: Get of %d segments into %d destinations", len(segs), len(dst))
	}
	for i, s := range segs {
		if int64(len(dst[i])) != s.Len {
			return fmt.Errorf("mpi: Get segment of %d bytes into a destination of %d", s.Len, len(dst[i]))
		}
	}
	_, err := w.get(target, segs, floor, func(m *winMem, _ int64) {
		for i, s := range segs {
			m.read(dst[i], s.Off)
		}
	})
	return err
}

// get is one indexed get of segs from target's window: it checks the epoch
// and the segments, charges the origin the issue, runs gather — the
// physical copy out of the window, given the get's total bytes — under the
// target's data mutex, then times the transfer, no earlier than floor, and
// records its arrival against the epoch.
func (w *Win) get(target int, segs []datatype.Segment, floor simtime.Time, gather func(m *winMem, total int64)) (simtime.Time, error) {
	h, err := w.epoch(target, "Get")
	if err != nil {
		return 0, err
	}
	m := &w.g.mems[target]
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Off+s.Len > m.size {
			return 0, fmt.Errorf("mpi: Get segment [%d,%d) outside window of %d bytes", s.Off, s.Off+s.Len, m.size)
		}
		total += s.Len
	}
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(segs))*perSegmentCPU)
	w.c.w.touch(w.c.rank, "get", depart)
	mu := &w.g.datamu[target]
	mu.Lock()
	gather(m, total)
	mu.Unlock()
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(target), w.c.w.machine.NodeOf(w.c.rank),
		w.c.w.machine.Scale(total), depart, netsim.OneSided)
	if floor > depart {
		arrival = arrival.Add(floor.Sub(depart))
	}
	h.maxArrival = max(h.maxArrival, arrival)
	return arrival, nil
}

package mpi

import (
	"fmt"
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
// multiple data blocks as one derived data type instance") — a node
// leader's combined put included — plus the intra-node handoff that gets
// co-located ranks' runs to that leader.
//
// The paper deliberately avoids MPI_Win_fence (a collective that would
// break TCIO's fully independent I/O calls) in favour of the lock-request
// paradigm; this runtime therefore provides per-target shared/exclusive
// window locks and no fence.

// winLock is one target's window lock. Waiting is abortable so a failed
// rank cannot deadlock the job.
//
// Virtual-time semantics: exclusive epochs serialize against everything;
// shared epochs serialize only against exclusive epochs (readers do not
// chain behind each other). The handoff instant is the end of the holder's
// critical section — the time spent issuing operations — not the wire time
// of its transfers, which the NIC resources account separately; chaining
// wire time here would doubly serialize back-to-back epochs in a way real
// RDMA hardware does not.
type winLock struct {
	mu     sync.Mutex
	cond   *sync.Cond
	excl   bool
	shared int
	// lastExcl / lastShared carry virtual time between epochs: when the
	// most recent exclusive (resp. shared) epoch handed off.
	lastExcl   simtime.Time
	lastShared simtime.Time
}

func newWinLock() *winLock {
	l := &winLock{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *winLock) acquire(exclusive bool, abortedErr func() error) (simtime.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if exclusive {
			if !l.excl && l.shared == 0 {
				l.excl = true
				return simtime.Max(l.lastExcl, l.lastShared), nil
			}
		} else if !l.excl {
			l.shared++
			return l.lastExcl, nil
		}
		// Only a rank that has to wait looks for an abort (see abortedErr).
		if err := abortedErr(); err != nil {
			return 0, err
		}
		l.cond.Wait()
	}
}

func (l *winLock) release(exclusive bool, at simtime.Time) {
	l.mu.Lock()
	if exclusive {
		l.excl = false
		if at > l.lastExcl {
			l.lastExcl = at
		}
	} else {
		if l.shared > 0 {
			l.shared--
		}
		if at > l.lastShared {
			l.lastShared = at
		}
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// wake holds mu for the reason mailbox.wake does.
func (l *winLock) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// winGlobal is the world-wide state of one window: every rank's exposed
// memory and per-target locks. datamu serializes the physical (real-time)
// copies into and out of each target's buffer: the virtual-time epoch
// discipline orders transfers logically, but rewrite traffic means two
// goroutines can touch the same bytes at the same wall-clock instant.
type winGlobal struct {
	id     int
	bufs   [][]byte
	datamu []sync.Mutex
	locks  []*winLock
}

// Win is one rank's handle on a window.
type Win struct {
	c    *Comm
	g    *winGlobal
	held map[int]*heldLock
	// free holds the records of closed epochs: Lock reuses one instead of
	// allocating, so a warm handle opens and closes epochs allocation-free.
	free  []*heldLock
	class netsim.Class
}

// SetClass overrides the network message class used by this handle's puts
// and gets. The default is OneSided (RDMA); forcing TwoSided charges each
// transfer the send/receive matching costs instead — the ablation isolating
// the paper's claim that one-sided communication is what lets TCIO scale.
func (w *Win) SetClass(class netsim.Class) { w.class = class }

type heldLock struct {
	exclusive  bool
	maxArrival simtime.Time // latest completion among this epoch's puts
}

// perSegmentCPU is the local cost of describing one block in an indexed
// datatype (building the type, driving the scatter/gather engine).
const perSegmentCPU = 60 * simtime.Nanosecond

// WinCreate is collective: every rank contributes local as its exposed
// window memory and receives a handle. Window memory is read and written
// by remote ranks only between Lock and Unlock.
func (c *Comm) WinCreate(local []byte) (*Win, error) {
	res, err := c.collect(local, func(vals []interface{}) interface{} {
		g := &winGlobal{
			bufs:   make([][]byte, len(vals)),
			datamu: make([]sync.Mutex, len(vals)),
			locks:  make([]*winLock, len(vals)),
		}
		for i, raw := range vals {
			g.bufs[i], _ = raw.([]byte)
			g.locks[i] = newWinLock()
		}
		c.w.winMu.Lock()
		g.id = len(c.w.windows)
		c.w.windows = append(c.w.windows, g)
		c.w.winMu.Unlock()
		return g
	}, c.treeCost(16))
	if err != nil {
		return nil, err
	}
	return &Win{c: c, g: res.(*winGlobal), held: make(map[int]*heldLock), class: netsim.OneSided}, nil
}

// Local returns this rank's own exposed window memory.
func (w *Win) Local() []byte { return w.g.bufs[w.c.rank] }

// SnapshotLocalInto copies len(dst) bytes at off of this rank's own window
// memory into a caller-owned buffer, serialized against the physical copies
// of concurrent remote puts. Background lanes that read window memory outside
// any access epoch (tcio's eager write-behind) must use it instead of slicing
// Local(): a rewrite put landing mid-read would otherwise be a data race.
func (w *Win) SnapshotLocalInto(dst []byte, off int64) {
	mu := &w.g.datamu[w.c.rank]
	mu.Lock()
	copy(dst, w.g.bufs[w.c.rank][off:off+int64(len(dst))])
	mu.Unlock()
}

// Lock opens an access epoch on target's window (MPI_Win_lock). exclusive
// corresponds to MPI_LOCK_EXCLUSIVE; otherwise MPI_LOCK_SHARED.
func (w *Win) Lock(target int, exclusive bool) error {
	if target < 0 || target >= len(w.g.bufs) {
		return fmt.Errorf("mpi: Win.Lock target %d of %d", target, len(w.g.bufs))
	}
	if _, dup := w.held[target]; dup {
		return fmt.Errorf("mpi: Win.Lock target %d already locked by rank %d", target, w.c.rank)
	}
	w.c.w.touch(w.c.rank, "lock", w.c.clock().Now())
	prevRelease, err := w.g.locks[target].acquire(exclusive, w.c.abortedErr)
	if err != nil {
		return err
	}
	// The lock request is a small round trip to the target node, and the
	// epoch cannot begin before the previous exclusive holder released.
	w.c.clock().AdvanceTo(prevRelease)
	net := w.c.w.machine.Net
	w.c.clock().Advance(2*net.Latency + net.SetupOneSided)
	var h *heldLock
	if n := len(w.free); n > 0 {
		// Reset on reuse: a recycled record must not carry the previous
		// epoch's maxArrival, or this epoch's Unlock would wait for that
		// one's transfers.
		h, w.free = w.free[n-1], w.free[:n-1]
		*h = heldLock{exclusive: exclusive}
	} else {
		h = &heldLock{exclusive: exclusive}
	}
	w.held[target] = h
	return nil
}

// Unlock closes the access epoch on target (MPI_Win_unlock). All of the
// epoch's puts and gets are complete, at both origin and target, when
// Unlock returns; the origin's clock advances accordingly. The lock itself
// hands off at the end of the critical section (operations issued), so
// successors queue behind the epoch's bookkeeping, not its wire time.
func (w *Win) Unlock(target int) error {
	h, ok := w.held[target]
	if !ok {
		return fmt.Errorf("mpi: Win.Unlock target %d not locked by rank %d", target, w.c.rank)
	}
	delete(w.held, target)
	net := w.c.w.machine.Net
	handoff := w.c.clock().Now().Add(net.Latency)
	w.c.clock().AdvanceTo(h.maxArrival)
	w.c.clock().Advance(net.Latency) // unlock notification
	w.g.locks[target].release(h.exclusive, handoff)
	w.free = append(w.free, h)
	return nil
}

// Held reports whether this rank currently holds a lock on target.
func (w *Win) Held(target int) bool {
	_, ok := w.held[target]
	return ok
}

// epoch returns the held-lock record, erroring when the caller skipped Lock.
func (w *Win) epoch(target int, op string) (*heldLock, error) {
	h, ok := w.held[target]
	if !ok {
		return nil, fmt.Errorf("mpi: %s to target %d without holding its window lock", op, target)
	}
	return h, nil
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
// dependent work — tcio's write-behind stores it with each dirty run so
// the owner never drains bytes before their virtual-time arrival.
func (h PutHandle) Arrival() simtime.Time { return h.arrival }

// PutSegmentsAsync is PutSegments returning an Rput-style handle, so a
// pipelined origin can bound its outstanding transfers by retiring the
// oldest handle instead of closing whole epochs.
func (w *Win) PutSegmentsAsync(target int, segs []datatype.Segment, data []byte) (PutHandle, error) {
	h, err := w.epoch(target, "Put")
	if err != nil {
		return PutHandle{}, err
	}
	buf := w.g.bufs[target]
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Off+s.Len > int64(len(buf)) {
			return PutHandle{}, fmt.Errorf("mpi: Put segment [%d,%d) outside window of %d bytes", s.Off, s.Off+s.Len, len(buf))
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
	pos := int64(0)
	for _, s := range segs {
		copy(buf[s.Off:s.Off+s.Len], data[pos:pos+s.Len])
		pos += s.Len
	}
	mu.Unlock()
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(w.c.rank), w.c.w.machine.NodeOf(target),
		w.c.w.machine.Scale(total), depart, w.class)
	if arrival > h.maxArrival {
		h.maxArrival = arrival
	}
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
	h, err := w.epoch(target, "Get")
	if err != nil {
		return GetHandle{}, err
	}
	buf := w.g.bufs[target]
	var total int64
	for _, s := range segs {
		if s.Off < 0 || s.Off+s.Len > int64(len(buf)) {
			return GetHandle{}, fmt.Errorf("mpi: Get segment [%d,%d) outside window of %d bytes", s.Off, s.Off+s.Len, len(buf))
		}
		total += s.Len
	}
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(segs))*perSegmentCPU)
	w.c.w.touch(w.c.rank, "get", depart)
	out := slices.Grow(dst, int(total))
	mu := &w.g.datamu[target]
	mu.Lock()
	for _, s := range segs {
		out = append(out, buf[s.Off:s.Off+s.Len]...)
	}
	mu.Unlock()
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(target), w.c.w.machine.NodeOf(w.c.rank),
		w.c.w.machine.Scale(total), depart, w.class)
	if floor > depart {
		arrival = arrival.Add(floor.Sub(depart))
	}
	if arrival > h.maxArrival {
		h.maxArrival = arrival
	}
	return GetHandle{c: w.c, data: out[len(dst):], arrival: arrival}, nil
}

// IntraNodeCopy charges the virtual-time cost of handing realBytes to a
// co-located rank over the node's shared memory — the netsim local path
// (setup plus MemBandwidth), never the NIC — and returns the instant the
// bytes are in place at the peer. The byte movement itself is the caller's
// (tcio's node aggregation deposits into shared staging directly); this
// call accounts for its time and its appearance in the network's
// local-message counters. It fails when the peer lives on a different node.
func (c *Comm) IntraNodeCopy(peer int, realBytes int64) (simtime.Time, error) {
	if peer < 0 || peer >= c.w.nprocs {
		return 0, fmt.Errorf("mpi: IntraNodeCopy to rank %d of %d", peer, c.w.nprocs)
	}
	src := c.w.machine.NodeOf(c.rank)
	if dst := c.w.machine.NodeOf(peer); dst != src {
		return 0, fmt.Errorf("mpi: IntraNodeCopy rank %d (node %d) to rank %d (node %d) crosses nodes",
			c.rank, src, peer, dst)
	}
	depart := c.clock().Advance(sendOverhead)
	c.w.touch(c.rank, "intranode", depart)
	return c.w.net.Transfer(src, src, c.w.machine.Scale(realBytes), depart, netsim.OneSided), nil
}

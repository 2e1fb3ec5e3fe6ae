package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// timeBarrier is the world's one collective rendezvous (Comm.rendezvous),
// reused by every collective, so every rank must call the collectives in the
// same order, as in MPI. Slots and scratch are made once.
type timeBarrier struct {
	mu      sync.Mutex // guards arrived and turn
	arrived int
	vals    []interface{}  // rank-owned deposit slots
	times   []simtime.Time // rank-owned entry clocks
	a2a     []a2aSlot      // rank-owned all-to-all sides
	result  interface{}    // the combiner's, read after the unpark
	final   simtime.Time   // likewise
	order   []int          // likewise: sortByClock's
	turn    int            // InClockOrder: index in order of the turn's rank
	chunk   []netsim.Msg   // scheduleAlltoall's: one source's p messages
}

func newTimeBarrier(n int) *timeBarrier {
	b := &timeBarrier{vals: make([]interface{}, n), times: make([]simtime.Time, n),
		a2a: make([]a2aSlot, n), order: make([]int, n)}
	for r := range b.order {
		b.order[r] = r
	}
	return b
}

// rendezvous is every collective's synchronization. The rank fills its own
// slots, counts itself in under mu and parks on site; the last arrival runs
// resolve over every slot and unparks the rest, or for InClockOrder's "turn"
// only the first in order. The count orders the slot writes before resolve;
// the unpark orders resolve before the rank's reads and its next slot
// writes. A collective inside an InClockOrder turn is an error: the peers
// wait for their turns, not for it.
func (c *Comm) rendezvous(val interface{}, site string, resolve func(*timeBarrier)) (*timeBarrier, error) {
	if c.w.ranks[c.rank].inTurn {
		return nil, errors.New("mpi: collective called inside an InClockOrder turn")
	}
	c.w.touch(c.rank, "collect", c.clock().Now())
	w, b := c.w, c.w.barrier
	b.vals[c.rank] = val
	b.times[c.rank] = c.clock().Now()
	b.mu.Lock()
	if b.arrived++; b.arrived < len(b.times) {
		return b, w.park(c.rank, wait{site: site}, &b.mu)
	}
	b.arrived = 0
	b.mu.Unlock()
	resolve(b)
	for r := range b.times {
		if site == "collect" || r == b.order[0] {
			w.unpark(r, nil)
		}
	}
	return b, nil
}

// collect runs one collective that leaves every clock synchronized.
// combine (may be nil) is evaluated once, by the last-arriving rank; cost is
// the collective's virtual-time duration beyond the latest arrival.
func (c *Comm) collect(val interface{}, combine func([]interface{}) interface{}, cost simtime.Duration) (interface{}, error) {
	b, err := c.rendezvous(val, "collect", func(b *timeBarrier) {
		b.final, b.result = slices.Max(b.times).Add(cost), nil
		if combine != nil {
			b.result = combine(b.vals)
		}
	})
	if err != nil {
		return nil, err
	}
	c.clock().AdvanceTo(b.final)
	return b.result, nil
}

// sortByClock sorts b.order, a permutation of the ranks, by (entry clock,
// rank): a total order, so the result does not depend on the permutation.
func (b *timeBarrier) sortByClock() {
	slices.SortFunc(b.order, func(x, y int) int {
		return cmp.Or(cmp.Compare(b.times[x], b.times[y]), cmp.Compare(x, y))
	})
}

// treeCost models a binomial-tree collective: log2(P) rounds, each a short
// message of msgBytes simulated bytes.
func (c *Comm) treeCost(msgBytes int64) simtime.Duration {
	p := c.w.nprocs
	if p <= 1 {
		return 0
	}
	rounds := bits.Len(uint(p - 1)) // ceil(log2 p)
	per := c.w.machine.Net.Latency + c.w.machine.Net.SetupTwoSided +
		simtime.BytesDuration(msgBytes, c.w.machine.Net.NICBandwidth)
	return simtime.Duration(rounds) * per
}

// Barrier blocks until every rank reaches it; clocks leave synchronized.
// TCIO's flush and close use this (tcio_flush "invokes MPI_Barrier").
func (c *Comm) Barrier() error {
	_, err := c.collect(nil, nil, c.treeCost(8))
	return err
}

// ReduceOp names a reduction operator.
type ReduceOp int

// Supported reductions.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

// AllreduceInt64 combines one int64 per rank with op and returns the result
// to all ranks. OCIO uses Min/Max to establish the aggregate file domain.
func (c *Comm) AllreduceInt64(op ReduceOp, v int64) (int64, error) {
	res, err := c.collect(v, func(vals []interface{}) interface{} {
		acc := vals[0].(int64)
		for _, raw := range vals[1:] {
			switch x := raw.(int64); op {
			case OpSum:
				acc += x
			case OpMax:
				acc = max(acc, x)
			case OpMin:
				acc = min(acc, x)
			}
		}
		return acc
	}, c.treeCost(8)*2) // reduce + broadcast
	if err != nil {
		return 0, err
	}
	return res.(int64), nil
}

// allgatherCost models a ring allgather of perRankBytes from each rank.
func (c *Comm) allgatherCost(perRankBytes int64) simtime.Duration {
	p := c.w.nprocs
	if p <= 1 {
		return 0
	}
	per := c.w.machine.Net.Latency + c.w.machine.Net.SetupTwoSided +
		simtime.BytesDuration(c.w.machine.Scale(perRankBytes), c.w.machine.Net.NICBandwidth)
	return simtime.Duration(p-1) * per
}

// AllgatherBytes gathers each rank's (possibly differently sized) payload
// in rank order.
func (c *Comm) AllgatherBytes(data []byte) ([][]byte, error) {
	res, err := c.collect(c.stage(data), func(vals []interface{}) interface{} {
		out := make([][]byte, len(vals))
		for i, raw := range vals {
			out[i] = raw.([]byte)
		}
		return out
	}, c.allgatherCost(int64(len(data))))
	if err != nil {
		return nil, err
	}
	return res.([][]byte), nil
}

// SharedOnce is a collective that returns the same value to every rank;
// create is evaluated exactly once (by the last rank to arrive). I/O layers
// use it to establish shared bookkeeping structures, much as MPI codes hang
// shared state off a window or a communicator attribute.
func (c *Comm) SharedOnce(create func() interface{}) (interface{}, error) {
	return c.collect(nil, func([]interface{}) interface{} { return create() }, c.treeCost(16))
}

// InClockOrder is a collective that runs fn on every rank, one rank at a
// time, in (entry clock, rank) order, each rank handing the turn on when its
// fn returns. No clock moves; what it orders is the host, so a resource that
// serves its callers first come, first served (an OST) sees the ranks'
// requests in virtual-time order. fn must not wait for a peer: a collective
// called inside it returns an error. A rank whose fn fails keeps the turn;
// the peers still waiting for theirs fail with ErrAborted once the world
// aborts.
func (c *Comm) InClockOrder(fn func() error) error {
	b, err := c.rendezvous(nil, "turn", func(b *timeBarrier) {
		b.sortByClock()
		b.turn = 0
	})
	if err != nil {
		return err
	}
	w := c.w
	b.mu.Lock() // the last arrival may come before its turn
	if b.order[b.turn] == c.rank {
		b.mu.Unlock()
	} else if err := w.park(c.rank, wait{site: "turn"}, &b.mu); err != nil {
		return err
	}
	rs := w.ranks[c.rank]
	rs.inTurn = true
	err = fn()
	rs.inTurn = false
	if err == nil { // a failed turn is kept: the peers wait for the abort
		b.mu.Lock()
		if b.turn++; b.turn < len(b.order) {
			w.unpark(b.order[b.turn], nil)
		}
		b.mu.Unlock()
	}
	return err
}

// a2aSlot is one rank's side of an all-to-all: what it sends rank dst (to),
// where what each rank sends it goes, and when its part of it ends.
type a2aSlot struct {
	buf    []byte
	displs []int
	staged [][]byte
	recv   [][]byte
	finish simtime.Time
}

func (s *a2aSlot) to(dst int) []byte {
	if s.staged != nil {
		return s.staged[dst]
	}
	lo, hi := s.displs[dst], s.displs[dst+1]
	return s.buf[lo:hi:hi]
}

// Alltoallv sends send[i] to rank i and returns the payloads received from
// every rank (recv[i] from rank i): ROMIO's exchange phase, every rank
// posting its receives, then all its sends, then waiting — the burst whose
// congestion TCIO avoids. The last arrival makes every transfer: sources in
// (entry clock, rank) order, each source's p eager sends consecutive, the
// one to rank k departing k+1 send overheads after the source's entry. A
// rank leaves at the later of its last departure and the latest arrival into
// it; no mailbox is involved. Each payload is staged in its own pool buffer,
// so the receiver may Recycle each result.
func (c *Comm) Alltoallv(send [][]byte) ([][]byte, error) {
	p := c.w.nprocs
	if len(send) != p {
		return nil, fmt.Errorf("mpi: Alltoallv with %d buffers for %d ranks", len(send), p)
	}
	staged := make([][]byte, p)
	for dst := range staged {
		staged[dst] = c.stage(send[dst])
	}
	out := make([][]byte, p)
	if err := c.alltoall(a2aSlot{staged: staged, recv: out}); err != nil {
		return nil, err
	}
	return out, nil
}

// AlltoallvFlat is Alltoallv with MPI's own signature: rank i is sent
// buf[displs[i]:displs[i+1]] and recv[i] is set to what rank i sent. The
// call takes ownership of buf — it is the eager staging copy, so nothing is
// copied or pooled per message — and every recv entry aliases its sender's
// buffer: read-only, cap == len, valid as long as the receiver holds it, and
// not for Recycle. Transfers and virtual-time charges are Alltoallv's.
func (c *Comm) AlltoallvFlat(buf []byte, displs []int, recv [][]byte) error {
	p := c.w.nprocs
	if len(displs) != p+1 || len(recv) != p {
		return fmt.Errorf("mpi: AlltoallvFlat with %d displacements and %d receive slots for %d ranks", len(displs), len(recv), p)
	}
	for dst := 0; dst < p; dst++ {
		lo, hi := displs[dst], displs[dst+1]
		if lo < 0 || hi < lo || hi > len(buf) {
			return fmt.Errorf("mpi: AlltoallvFlat displacements [%d,%d) for rank %d in a buffer of %d bytes", lo, hi, dst, len(buf))
		}
	}
	return c.alltoall(a2aSlot{buf: buf, displs: displs, recv: recv})
}

// alltoall deposits this rank's side of an exchange, lets the last arrival
// make every transfer (scheduleAlltoall), and leaves at the rank's finish.
func (c *Comm) alltoall(side a2aSlot) error {
	c.w.barrier.a2a[c.rank] = side
	b, err := c.rendezvous(nil, "collect", c.w.scheduleAlltoall)
	if err != nil {
		return err
	}
	slot := &b.a2a[c.rank]
	c.clock().AdvanceTo(slot.finish)
	*slot = a2aSlot{} // drop the payload references
	return nil
}

// scheduleAlltoall is the last arrival's pass over all p² messages, in the
// order and at the departures Alltoallv's comment gives, delivering each.
// Each source's p messages are posted to the network as one burst.
func (w *World) scheduleAlltoall(b *timeBarrier) {
	b.sortByClock()
	if b.chunk == nil {
		b.chunk = make([]netsim.Msg, len(b.a2a))
	}
	for _, src := range b.order {
		s, node := &b.a2a[src], w.machine.NodeOf(src)
		for dst := range b.chunk {
			msg := s.to(dst)
			b.a2a[dst].recv[src] = msg
			m := &b.chunk[dst] // Post sets the rest
			m.Src, m.Dst, m.Size = node, w.machine.NodeOf(dst), w.machine.Scale(int64(len(msg)))
			m.Depart = b.times[src].Add(simtime.Duration(dst+1) * sendOverhead)
		}
		w.net.Post(b.chunk, netsim.TwoSided)
		for dst := range b.chunk {
			d := &b.a2a[dst]
			d.finish = max(d.finish, b.chunk[dst].Arrival)
		}
		s.finish = max(s.finish, b.times[src].Add(simtime.Duration(len(b.a2a))*sendOverhead))
	}
}

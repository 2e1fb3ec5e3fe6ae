package mpi

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// timeBarrier coordinates collective operations. All ranks arrive with a
// value and their current clock; the last arrival combines the values; all
// leave with the combined result and a clock advanced to the latest arrival
// plus the collective's cost. Epochs recycle, so the barrier serves any
// number of consecutive collectives (which, as in MPI, every rank must
// invoke in the same order).
//
// The arrival path is lock-free: each rank deposits its value and clock in
// slots it alone writes, then increments the arrival counter. The counter
// reaching n elects the incrementing rank the combiner; it alone folds the
// clocks, evaluates the reduction, installs the next epoch, and only then
// closes the release channel. With thousands of rank goroutines arriving
// nearly at once, the previous global mutex serialized every arrival; now
// the only shared write is one atomic add per rank.
type timeBarrier struct {
	n   int
	cur atomic.Pointer[collEpoch]
}

type collEpoch struct {
	release chan struct{}
	vals    []interface{}  // rank-owned deposit slots
	times   []simtime.Time // rank-owned arrival clocks
	arrived atomic.Int32
	result  interface{}
	final   simtime.Time
}

func newTimeBarrier(n int) *timeBarrier {
	b := &timeBarrier{n: n}
	b.cur.Store(newCollEpoch(n))
	return b
}

func newCollEpoch(n int) *collEpoch {
	return &collEpoch{
		release: make(chan struct{}),
		vals:    make([]interface{}, n),
		times:   make([]simtime.Time, n),
	}
}

// collect runs one collective. combine (may be nil) is evaluated once, by
// the last-arriving rank; cost is the collective's virtual-time duration
// beyond the synchronization point.
//
// Epoch lifetime: a rank can only reach epoch k+1 after being released from
// epoch k, and the combiner installs k+1 before closing k's release channel,
// so the pointer loaded here is always the epoch this rank's collective
// belongs to. The atomic add orders each rank's slot writes before the
// combiner's reads; the channel close orders the combiner's result/final
// writes before the waiters' reads.
func (c *Comm) collect(val interface{}, combine func([]interface{}) interface{}, cost simtime.Duration) (interface{}, error) {
	b := c.w.barrier
	e := b.cur.Load()
	e.vals[c.rank] = val
	e.times[c.rank] = c.clock().Now()

	if int(e.arrived.Add(1)) == b.n {
		maxT := e.times[0]
		for _, t := range e.times[1:] {
			if t > maxT {
				maxT = t
			}
		}
		if combine != nil {
			e.result = combine(e.vals)
		}
		e.final = maxT.Add(cost)
		b.cur.Store(newCollEpoch(b.n))
		close(e.release)
	} else {
		select {
		case <-e.release:
		case <-c.w.aborted:
			// With both ready select picks at random; the completed
			// collective must win, or where a rank stops is a coin toss.
			select {
			case <-e.release:
			default:
				return nil, ErrAborted
			}
		}
	}
	c.clock().AdvanceTo(e.final)
	return e.result, nil
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
			x := raw.(int64)
			switch op {
			case OpSum:
				acc += x
			case OpMax:
				if x > acc {
					acc = x
				}
			case OpMin:
				if x < acc {
					acc = x
				}
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

// tagAlltoall carries the all-to-all exchange. Negative tags are the
// runtime's: user sends and receives reject them (userTag), so no receive a
// caller posts can take a collective's message.
const tagAlltoall = -2

// Alltoallv sends send[i] to rank i and returns the payloads received from
// every rank (recv[i] from rank i). It is implemented exactly as the paper
// describes ROMIO's exchange phase: post all receives, then all sends, then
// wait — the all-at-once burst whose congestion TCIO avoids. Sends are eager
// and a posted receive would match only when waited on, so the posts are
// free and the exchange is p eager sends followed by p blocking receives:
// the same virtual-time charges, with no request object per message.
// Each payload is staged in its own pool buffer, so the receiver may
// Recycle each result.
func (c *Comm) Alltoallv(send [][]byte) ([][]byte, error) {
	p := c.w.nprocs
	if len(send) != p {
		return nil, fmt.Errorf("mpi: Alltoallv with %d buffers for %d ranks", len(send), p)
	}
	for dst := 0; dst < p; dst++ {
		if err := c.sendStaged(dst, tagAlltoall, c.stage(send[dst]), netsim.TwoSided, -1, 0); err != nil {
			return nil, err
		}
	}
	out := make([][]byte, p)
	if err := c.recvAlltoall(out); err != nil {
		return nil, err
	}
	return out, nil
}

// AlltoallvFlat is Alltoallv with MPI's own signature: rank i is sent
// buf[displs[i]:displs[i+1]] and recv[i] is set to what rank i sent. The
// call takes ownership of buf — it is the eager staging copy, so nothing is
// copied or pooled per message — and every recv entry aliases its sender's
// buffer: read-only, cap == len, valid as long as the receiver holds it, and
// not for Recycle. Sends, receives and virtual-time charges are Alltoallv's.
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
		if err := c.sendStaged(dst, tagAlltoall, buf[lo:hi:hi], netsim.TwoSided, -1, 0); err != nil {
			return err
		}
	}
	return c.recvAlltoall(recv)
}

// recvAlltoall is the receive half of both all-to-all entry points: one
// blocking receive per source, in rank order.
func (c *Comm) recvAlltoall(recv [][]byte) error {
	for src := range recv {
		e, err := c.receive(src, tagAlltoall)
		if err != nil {
			return err
		}
		recv[src] = e.data
	}
	return nil
}

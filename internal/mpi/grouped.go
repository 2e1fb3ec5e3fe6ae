package mpi

import (
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// This file extends the one-sided layer with the node-aggregation
// primitives: a combined put that carries several origin ranks' run lists
// as one wire message, and the intra-node handoff that gets those run
// lists to the combining rank in the first place.

// PutGroup is one origin rank's contribution to a combined put: the window
// runs it wrote and their bytes concatenated in run order. Origin is pure
// provenance — it does not affect the transfer's cost or placement, but it
// lets callers keep per-rank accounting exact even though the wire sees a
// single message.
type PutGroup struct {
	Origin int
	Segs   []datatype.Segment
	Data   []byte
}

// PutGroupedAsync merges several origins' run lists into one combined put to
// target — the runtime equivalent of a node leader building one
// MPI_Type_indexed datatype over everything its node wrote to a segment
// and issuing a single MPI_Put. Groups are applied in slice order, so on
// overlapping runs the later group wins; callers order groups canonically
// (origin rank ascending) to keep the result schedule-independent. The
// wire is billed one message of the groups' coalesced union: setup once,
// per-block CPU for the merged block list, and the union's byte total
// (overlap between groups is transferred once, as a real derived datatype
// would). It returns an Rput-style handle; see PutSegmentsAsync.
func (w *Win) PutGroupedAsync(target int, groups []PutGroup) (PutHandle, error) {
	h, err := w.epoch(target, "PutGrouped")
	if err != nil {
		return PutHandle{}, err
	}
	buf := w.g.bufs[target]
	var union []extent.Extent
	for _, g := range groups {
		var total int64
		for _, s := range g.Segs {
			if s.Off < 0 || s.Off+s.Len > int64(len(buf)) {
				return PutHandle{}, fmt.Errorf("mpi: PutGrouped origin %d segment [%d,%d) outside window of %d bytes",
					g.Origin, s.Off, s.Off+s.Len, len(buf))
			}
			total += s.Len
		}
		if total != int64(len(g.Data)) {
			return PutHandle{}, fmt.Errorf("mpi: PutGrouped origin %d: %d bytes for segments totalling %d",
				g.Origin, len(g.Data), total)
		}
		union = append(union, g.Segs...)
	}
	mu := &w.g.datamu[target]
	mu.Lock()
	for _, g := range groups {
		pos := int64(0)
		for _, s := range g.Segs {
			copy(buf[s.Off:s.Off+s.Len], g.Data[pos:pos+s.Len])
			pos += s.Len
		}
	}
	mu.Unlock()
	blocks := extent.Coalesce(union)
	depart := w.c.clock().Advance(sendOverhead + simtime.Duration(len(blocks))*perSegmentCPU)
	arrival := w.c.w.net.Transfer(
		w.c.w.machine.NodeOf(w.c.rank), w.c.w.machine.NodeOf(target),
		w.c.w.machine.Scale(extent.Total(blocks)), depart, w.class)
	if arrival > h.maxArrival {
		h.maxArrival = arrival
	}
	return PutHandle{c: w.c, arrival: arrival}, nil
}

// IntraNodeCopy charges the virtual-time cost of handing realBytes to a
// co-located rank over the node's shared memory — the netsim local path
// (setup plus MemBandwidth), never the NIC — and returns the instant the
// bytes are in place at the peer. The byte movement itself is the caller's
// (the aggregation tier deposits into shared staging directly); this call
// accounts for its time and its appearance in the network's local-message
// counters. It fails when the peer lives on a different node.
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
	return c.w.net.Transfer(src, src, c.w.machine.Scale(realBytes), depart, netsim.OneSided), nil
}

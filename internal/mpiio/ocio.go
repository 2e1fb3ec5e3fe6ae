package mpiio

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
)

// This file implements OCIO: ROMIO's generalized two-phase collective I/O
// (paper §III.A). A collective call proceeds as:
//
//  1. Every rank flattens its request through its file view and the ranks
//     agree (allreduce) on the aggregate file domain [lo, hi).
//  2. The domain is split into equal, disjoint, contiguous file domains,
//     one per aggregator. As in the paper's experiments, every process is
//     an aggregator (collective buffering's aggregator sub-selection is
//     disabled).
//  3. Data exchange phase: each rank ships the pieces of its request to
//     the owning aggregators with nonblocking all-to-all communication —
//     all receives posted, then all sends, then wait. This is the traffic
//     burst whose congestion TCIO's paced one-sided transfers avoid.
//  4. I/O phase: each aggregator performs one large contiguous file system
//     access for its whole domain, in clock order (mpi.Comm.InClockOrder).
//     For writes the aggregator buffer holds the entire domain, which is
//     why OCIO's memory footprint is roughly twice the data size (the
//     paper's Fig. 6 discussion: at the 48 GB dataset each process needs
//     1.5 GB of I/O buffers and fails).

// An exchange message is a little-endian uint32 run count, that many
// extent.RunWire records of absolute file runs, and (for writes) the runs'
// payload bytes in run order; ranks that aggregate nothing get an empty one.
//
// checkRuns decodes an incoming message's runs onto dst and validates them
// before anything indexes with them: the run table fits the message, every
// run is non-empty, inside the receiving domain and past its predecessor (so
// the runs total at most the domain), and what follows the table is exactly
// the runs' payload for a write, nothing for a read request. It returns dst
// with the runs appended, and their total; a bad message appends nothing.
func checkRuns(dst []extent.Extent, msg []byte, mine extent.Extent, withData bool) ([]extent.Extent, int64, error) {
	if len(msg) == 0 {
		return dst, 0, nil
	}
	if len(msg) < 4 || uint64(binary.LittleEndian.Uint32(msg)) > uint64(len(msg)-4)/extent.RunWire {
		return dst, 0, fmt.Errorf("mpiio: exchange message of %d bytes is truncated or disagrees with its run count", len(msg))
	}
	recs, payload := runTable(msg)
	n := len(dst)
	dst, _ = extent.DecodeRuns(dst, recs) // runTable cuts whole records
	total, next := int64(0), mine.Off
	for _, r := range dst[n:] {
		if r.Len <= 0 || r.Off < next || r.Len > mine.End()-r.Off {
			return dst[:n], 0, fmt.Errorf("mpiio: exchange run [%d,+%d) out of order or outside file domain [%d,+%d)",
				r.Off, r.Len, mine.Off, mine.Len)
		}
		total, next = total+r.Len, r.End()
	}
	want := int64(0)
	if withData {
		want = total
	}
	if int64(len(payload)) != want {
		return dst[:n], 0, fmt.Errorf("mpiio: exchange message carries %d payload bytes, want %d", len(payload), want)
	}
	return dst, total, nil
}

// runTable splits a checked exchange message into its run records and the
// payload behind them.
func runTable(msg []byte) (recs, payload []byte) {
	if len(msg) == 0 {
		return nil, nil
	}
	end := 4 + extent.RunWire*int(binary.LittleEndian.Uint32(msg))
	return msg[4:end], msg[end:]
}

// aggregateDomain computes this call's [lo,hi) across all ranks.
func (f *File) aggregateDomain(runs []datatype.Segment) (int64, int64, error) {
	myLo, myHi := int64(math.MaxInt64), int64(0)
	if len(runs) > 0 {
		myLo = runs[0].Off
		myHi = runs[len(runs)-1].Off + runs[len(runs)-1].Len
	}
	lo, err := f.c.AllreduceInt64(mpi.OpMin, myLo)
	if err != nil {
		return 0, 0, err
	}
	hi, err := f.c.AllreduceInt64(mpi.OpMax, myHi)
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// aggSet is the aggregator layout of one collective call: the equal-size
// partition of the aggregate domain into file domains (extent.Partition)
// and the ranks that own them. With SetAggregators(0) — the paper's setup —
// every rank is an aggregator; otherwise the domains are dealt to a strided
// subset of ranks, as ROMIO's collective buffering does.
type aggSet struct {
	part   extent.Partition
	stride int           // domain k belongs to rank k*stride
	mine   extent.Extent // this rank's domain; empty when it aggregates nothing
}

func (f *File) buildAggSet(lo, hi int64) aggSet {
	n := f.aggregators
	if n <= 0 || n > f.c.Size() {
		n = f.c.Size()
	}
	as := aggSet{part: extent.NewPartition(lo, hi, n), stride: f.c.Size() / n}
	if r := f.c.Rank(); r%as.stride == 0 && r/as.stride < n {
		as.mine = as.part.Domain(r / as.stride)
	}
	return as
}

// pack builds the send buffer of a request exchange and its displacements
// (f.displs). The plan groups the pieces by aggregator (f.plan, f.first);
// view runs ascend in data order, so aggregator k's payload is one
// contiguous range of data: each message is written once, straight into its
// slot. data is nil for a read request, whose messages end at the run table.
func (f *File) pack(as aggSet, runs []datatype.Segment, data []byte) []byte {
	p, n := f.c.Size(), as.part.N
	if f.displs == nil {
		f.displs, f.recv = make([]int, p+1), make([][]byte, p)
	}
	if cap(f.first) <= n {
		f.first = make([]int, n+1)
	}
	f.first = f.first[:n+1]
	f.plan = extent.Cut(as.part, f.plan[:0], f.first, runs)

	clear(f.displs)
	for k := 0; k < n; k++ {
		pieces := f.plan[f.first[k]:f.first[k+1]]
		size := 4 + extent.RunWire*len(pieces)
		if data != nil {
			size += int(extent.Total(pieces))
		}
		f.displs[k*as.stride+1] = size
	}
	for r := 0; r < p; r++ {
		f.displs[r+1] += f.displs[r]
	}
	buf := make([]byte, f.displs[p])
	for k := 0; k < n; k++ {
		pieces := f.plan[f.first[k]:f.first[k+1]]
		msg := buf[f.displs[k*as.stride]:f.displs[k*as.stride+1]]
		binary.LittleEndian.PutUint32(msg, uint32(len(pieces)))
		extent.AppendRuns(msg[:4], pieces) // in place: the slot has the room
		data = data[copy(msg[4+extent.RunWire*len(pieces):], data):]
	}
	return buf
}

// WriteAll performs a collective write of data through the view at the
// current independent file pointer (MPI_File_write_all), advancing it.
func (f *File) WriteAll(data []byte) error {
	runs, err := f.viewRuns(f.pos, int64(len(data)))
	if err != nil {
		return err
	}
	f.pos += int64(len(data))

	lo, hi, err := f.aggregateDomain(runs)
	if err != nil {
		return err
	}
	if hi <= lo {
		return f.c.Barrier()
	}
	as := f.buildAggSet(lo, hi)
	mine := as.mine

	// Data exchange phase: the nonblocking all-to-all burst.
	send := f.pack(as, runs, data)
	f.chargeCPU(runCPU, len(f.plan)) // origin-side pack + descriptor encode
	if err := f.c.AlltoallvFlat(send, f.displs, f.recv); err != nil {
		return err
	}

	// I/O phase, aggregators in clock order. A domain the runs cover is
	// assembled before the turn; the turn holds only what the order must
	// see: the preread of a domain with holes, the CPU charge and the write.
	var buf []byte
	if mine.Len > 0 {
		if buf, err = f.c.Malloc(mine.Len); err != nil {
			return fmt.Errorf("mpiio: aggregator buffer of %d bytes: %w", mine.Len, err)
		}
		defer f.c.Free(buf)
	}
	scattered, covered, bad := f.assemble(mine, buf)
	if err := f.c.InClockOrder(func() error {
		switch {
		case mine.Len == 0:
			return nil
		case bad != nil: // returned in the turn, as if found there
			return bad
		case !covered:
			// Holes force a read-modify-write: preread, then scatter.
			if err := f.readRetry(mine.Off, buf); err != nil {
				return err
			}
			f.scatter(mine, buf)
		}
		f.chargeCPU(runCPU, scattered) // aggregator-side decode + scatter
		return f.writeRetry(mine.Off, buf)
	}); err != nil {
		return err
	}
	return f.c.Barrier()
}

// assemble decodes and checks the runs an aggregator received for its
// domain and reports how many there are, and whether they cover the domain;
// when they do, it scatters their payloads into buf. The plan is spent once
// packed, so its storage holds the runs. A message that fails checkRuns is
// the error.
func (f *File) assemble(mine extent.Extent, buf []byte) (runs int, covered bool, err error) {
	if mine.Len == 0 {
		return 0, false, nil
	}
	f.plan = f.plan[:0]
	for _, msg := range f.recv {
		if f.plan, _, err = checkRuns(f.plan, msg, mine, true); err != nil {
			return 0, false, err
		}
	}
	runs = len(f.plan)
	// Every run lies inside the domain, so they cover it exactly when they
	// merge into it.
	merged := extent.Coalesce(f.plan)
	if covered = len(merged) == 1 && merged[0] == mine; covered {
		f.scatter(mine, buf)
	}
	return runs, covered, nil
}

// scatter copies every checked message's payload to its runs' places in the
// domain buffer. Coalesce reordered the plan, so it decodes each message
// again.
func (f *File) scatter(mine extent.Extent, buf []byte) {
	for _, msg := range f.recv {
		recs, payload := runTable(msg)
		f.plan, _ = extent.DecodeRuns(f.plan[:0], recs) // checked by assemble
		for _, r := range f.plan {
			payload = payload[copy(buf[r.Off-mine.Off:r.End()-mine.Off], payload):]
		}
	}
}

// ReadAll performs a collective read of n visible bytes through the view at
// the current pointer (MPI_File_read_all), advancing it.
func (f *File) ReadAll(n int64) ([]byte, error) {
	runs, err := f.viewRuns(f.pos, n)
	if err != nil {
		return nil, err
	}
	f.pos += n

	lo, hi, err := f.aggregateDomain(runs)
	if err != nil {
		return nil, err
	}
	if hi <= lo {
		if err := f.c.Barrier(); err != nil {
			return nil, err
		}
		return make([]byte, n), nil
	}
	as := f.buildAggSet(lo, hi)
	mine := as.mine

	// Exchange phase 1 (ROMIO's ADIOI_Calc_others_req): every rank tells
	// each aggregator which runs it needs — an all-to-all burst of request
	// lists issued by all ranks at the same instant.
	req := f.pack(as, runs, nil)
	f.chargeCPU(runCPU, len(f.plan)) // origin-side request encode
	if err := f.c.AlltoallvFlat(req, f.displs, f.recv); err != nil {
		return nil, err
	}

	// I/O phase, aggregators in clock order: each reads its whole domain.
	var buf []byte
	if mine.Len > 0 {
		if buf, err = f.c.Malloc(mine.Len); err != nil {
			return nil, fmt.Errorf("mpiio: aggregator buffer of %d bytes: %w", mine.Len, err)
		}
		defer f.c.Free(buf)
	}
	if err := f.c.InClockOrder(func() error {
		if mine.Len == 0 {
			return nil
		}
		return f.readRetry(mine.Off, buf)
	}); err != nil {
		return nil, err
	}

	// Exchange phase 2: aggregators answer with the requested bytes, one
	// reply buffer laid out by the requests' run totals. A rank that
	// aggregates nothing received only empty requests. The spent plan's
	// storage holds the requests' runs, in source order.
	pieces, want := len(f.plan), extent.Total(f.plan)
	f.plan = f.plan[:0]
	f.displs[0] = 0
	for src, msg := range f.recv {
		var total int64
		if f.plan, total, err = checkRuns(f.plan, msg, mine, false); err != nil {
			return nil, err
		}
		f.displs[src+1] = f.displs[src] + int(total)
	}
	replies := make([]byte, f.displs[len(f.recv)])
	at := 0
	for _, r := range f.plan {
		at += copy(replies[at:], buf[r.Off-mine.Off:r.End()-mine.Off])
	}
	f.chargeCPU(runCPU, len(f.plan)) // aggregator-side decode + gather
	if err := f.c.AlltoallvFlat(replies, f.displs, f.recv); err != nil {
		return nil, err
	}

	// Assemble this rank's data: its plan was grouped by aggregator in data
	// order, so each answer is one contiguous range of the result.
	out := make([]byte, n)
	filled := int64(0)
	for k := 0; k < as.part.N; k++ {
		filled += int64(copy(out[filled:], f.recv[k*as.stride]))
	}
	if filled != want {
		return nil, fmt.Errorf("mpiio: aggregators answered %d bytes, requested %d", filled, want)
	}
	f.chargeCPU(runCPU, pieces) // origin-side reply assembly
	if err := f.c.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

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
//     access for its whole domain. For writes the aggregator buffer holds
//     the entire domain, which is why OCIO's memory footprint is roughly
//     twice the data size (the paper's Fig. 6 discussion: at the 48 GB
//     dataset each process needs 1.5 GB of I/O buffers and fails).

// runsMessage encodes a set of absolute file runs plus (for writes) their
// payload bytes, for the exchange phase.
func encodeRuns(runs []datatype.Segment, payload []byte) []byte {
	msg := make([]byte, 4+16*len(runs)+len(payload))
	binary.LittleEndian.PutUint32(msg, uint32(len(runs)))
	for i, r := range runs {
		off := 4 + i*16
		binary.LittleEndian.PutUint64(msg[off:], uint64(r.Off))
		binary.LittleEndian.PutUint64(msg[off+8:], uint64(r.Len))
	}
	copy(msg[4+16*len(runs):], payload)
	return msg
}

func decodeRuns(msg []byte) ([]datatype.Segment, []byte, error) {
	if len(msg) < 4 {
		return nil, nil, fmt.Errorf("mpiio: truncated exchange message (%d bytes)", len(msg))
	}
	n := binary.LittleEndian.Uint32(msg[:4])
	need := 4 + int(n)*16
	if len(msg) < need {
		return nil, nil, fmt.Errorf("mpiio: exchange message needs %d bytes, has %d", need, len(msg))
	}
	runs := make([]datatype.Segment, n)
	for i := range runs {
		off := 4 + i*16
		runs[i].Off = int64(binary.LittleEndian.Uint64(msg[off : off+8]))
		runs[i].Len = int64(binary.LittleEndian.Uint64(msg[off+8 : off+16]))
	}
	return runs, msg[need:], nil
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
	owners []int
	mine   int // index of this rank's domain, -1 when it owns none
}

func (f *File) buildAggSet(lo, hi int64) aggSet {
	n := f.aggregators
	if n <= 0 || n > f.c.Size() {
		n = f.c.Size()
	}
	as := aggSet{part: extent.NewPartition(lo, hi, n), owners: make([]int, n), mine: -1}
	stride := f.c.Size() / n
	if stride < 1 {
		stride = 1
	}
	for k := 0; k < n; k++ {
		as.owners[k] = k * stride
		if as.owners[k] == f.c.Rank() {
			as.mine = k
		}
	}
	return as
}

// mineDomain returns this rank's file domain, or an empty extent.
func (as aggSet) mineDomain() extent.Extent {
	if as.mine < 0 {
		return extent.Extent{}
	}
	return as.part.Domain(as.mine)
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
	mine := as.mineDomain()

	// Build the exchange messages: this rank's pieces and their payload
	// bytes for every aggregator, in one pass over the runs so run order
	// and data order stay aligned.
	perAgg := make([][]datatype.Segment, as.part.N)
	payloadFor := make([][]byte, as.part.N)
	consumed := int64(0)
	for _, r := range runs {
		for r.Len > 0 {
			k, end := as.part.Clip(r.Off, r.End())
			n := end - r.Off
			perAgg[k] = append(perAgg[k], datatype.Segment{Off: r.Off, Len: n})
			payloadFor[k] = append(payloadFor[k], data[consumed:consumed+n]...)
			consumed += n
			r.Off += n
			r.Len -= n
		}
	}
	send := make([][]byte, f.c.Size())
	nRuns := 0
	for k := 0; k < as.part.N; k++ {
		send[as.owners[k]] = encodeRuns(perAgg[k], payloadFor[k])
		nRuns += len(perAgg[k])
	}
	f.chargeCPU(runCPU, nRuns) // origin-side pack + descriptor encode

	// Data exchange phase: the nonblocking all-to-all burst.
	recv, err := f.c.Alltoallv(send)
	if err != nil {
		return err
	}

	// I/O phase: assemble the domain buffer and issue one large write.
	if mine.Len > 0 {
		buf, err := f.c.Malloc(mine.Len)
		if err != nil {
			return fmt.Errorf("mpiio: aggregator buffer of %d bytes: %w", mine.Len, err)
		}
		defer f.c.Free(buf)

		// Decode all incoming pieces first to decide whether the domain is
		// fully covered; holes force a read-modify-write preread.
		type piece struct {
			runs    []datatype.Segment
			payload []byte
		}
		pieces := make([]piece, 0, len(recv))
		covered := make([]datatype.Segment, 0, 64)
		for _, msg := range recv {
			if len(msg) == 0 {
				continue
			}
			rs, payload, err := decodeRuns(msg)
			if err != nil {
				return err
			}
			pieces = append(pieces, piece{runs: rs, payload: payload})
			covered = append(covered, rs...)
		}
		if !extent.Covers(covered, mine.Off, mine.End()) {
			if err := f.readRetry(mine.Off, buf); err != nil {
				return err
			}
		}
		scattered := 0
		for _, p := range pieces {
			at := int64(0)
			for _, r := range p.runs {
				copy(buf[r.Off-mine.Off:r.Off-mine.Off+r.Len], p.payload[at:at+r.Len])
				at += r.Len
			}
			scattered += len(p.runs)
		}
		f.chargeCPU(runCPU, scattered) // aggregator-side decode + scatter
		if err := f.writeRetry(mine.Off, buf); err != nil {
			return err
		}
	}
	return f.c.Barrier()
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
	mine := as.mineDomain()

	// Exchange phase 1 (ROMIO's ADIOI_Calc_others_req): every rank tells
	// each aggregator which runs it needs — an all-to-all burst of request
	// lists issued by all ranks at the same instant.
	perAgg := as.part.Split(runs)
	req := make([][]byte, f.c.Size())
	nRuns := 0
	for k := 0; k < as.part.N; k++ {
		req[as.owners[k]] = encodeRuns(perAgg[k], nil)
		nRuns += len(perAgg[k])
	}
	f.chargeCPU(runCPU, nRuns) // origin-side request encode
	incoming, err := f.c.Alltoallv(req)
	if err != nil {
		return nil, err
	}

	// I/O phase: each aggregator reads its whole domain.
	var buf []byte
	if mine.Len > 0 {
		buf, err = f.c.Malloc(mine.Len)
		if err != nil {
			return nil, fmt.Errorf("mpiio: aggregator buffer of %d bytes: %w", mine.Len, err)
		}
		defer f.c.Free(buf)
		if err := f.readRetry(mine.Off, buf); err != nil {
			return nil, err
		}
	}

	// Exchange phase 2: aggregators answer with the requested bytes.
	replies := make([][]byte, f.c.Size())
	gathered := 0
	for src, msg := range incoming {
		if len(msg) == 0 {
			continue // this rank aggregates nothing, or src requested nothing
		}
		rs, _, err := decodeRuns(msg)
		if err != nil {
			return nil, err
		}
		var payload []byte
		for _, r := range rs {
			payload = append(payload, buf[r.Off-mine.Off:r.Off-mine.Off+r.Len]...)
		}
		replies[src] = payload
		gathered += len(rs)
	}
	f.chargeCPU(runCPU, gathered) // aggregator-side decode + gather
	answers, err := f.c.Alltoallv(replies)
	if err != nil {
		return nil, err
	}

	// Assemble this rank's data in run order from the per-aggregator
	// answer streams.
	out := make([]byte, n)
	cursor := make([]int64, as.part.N)
	filled := int64(0)
	assembled := 0
	for _, r := range runs {
		for r.Len > 0 {
			k, end := as.part.Clip(r.Off, r.End())
			m := end - r.Off
			copy(out[filled:filled+m], answers[as.owners[k]][cursor[k]:cursor[k]+m])
			cursor[k] += m
			filled += m
			r.Off += m
			r.Len -= m
			assembled++
		}
	}
	f.chargeCPU(runCPU, assembled) // origin-side reply assembly
	if err := f.c.Barrier(); err != nil {
		return nil, err
	}
	return out, nil
}

package storage

// The data-sieving read path (Thakur/Gropp/Lusk, list I/O + data sieving).
// ReadExtentsSieved accepts the same batched noncontiguous request list as
// ReadExtents but plans it through extent.SievePlan first: nearby runs are
// served by one covering read of at most budget bytes, staged in a pooled
// buffer, and the wanted runs are scattered out of the staging afterwards.
// The cover requests — not the caller's runs — are what the engine issues,
// so retry handling, trace emission (trace.KindSieve), and virtual-time
// charging (the covers are one posted batch) all apply to them unchanged,
// and the fault-roll identity (client, offset, length, attempt) is a
// deterministic function of the planned covers. A budget too small to
// join any two runs degenerates to list I/O: every run is its own cover,
// passed through with the caller's own buffer and zero waste.

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/trace"
)

// SieveResult extends Result with the sieve's own accounting.
type SieveResult struct {
	Result
	// Waste counts cover bytes read from the file system but not delivered
	// to any request — the holes the sieve paid for. Result.Bytes counts
	// the full cover traffic, so delivered bytes are Bytes - Waste.
	Waste int64
}

// ReadExtentsSieved fills every request's Data from the file through
// data-sieving covers of at most budget bytes. Requests may be unsorted
// and may overlap; zero-length requests are ignored. With budget <= 0 (or
// any budget below the smallest joinable pair) the plan is pure list I/O.
func (c *Client) ReadExtentsSieved(op string, reqs []Request, budget int64) (SieveResult, error) {
	runs := make([]extent.Extent, len(reqs))
	for i, r := range reqs {
		runs[i] = extent.Extent{Off: r.Off, Len: int64(len(r.Data))}
	}
	groups := extent.SievePlan(runs, budget)

	var out SieveResult
	covers := make([]Request, 0, len(groups))
	staged := make([]int, 0, len(groups)) // indices into groups needing a scatter
	var stages []([]byte)
	for gi, g := range groups {
		if len(g.Index) == 1 && g.Cover.Len == runs[g.Index[0]].Len {
			// The cover is exactly one caller run: read straight into the
			// caller's buffer, nothing to scatter, nothing wasted.
			covers = append(covers, reqs[g.Index[0]])
			continue
		}
		buf := getStage(int(g.Cover.Len))
		covers = append(covers, Request{
			Off:  g.Cover.Off,
			Data: buf,
			Tag:  fmt.Sprintf("sieve cover=%d+%d runs=%d", g.Cover.Off, g.Cover.Len, len(g.Index)),
		})
		staged = append(staged, gi)
		stages = append(stages, buf)
		out.Waste += g.Waste(runs)
	}

	res, err := c.run(op, trace.KindSieve, covers, false)
	out.Result = res
	if err != nil {
		for _, buf := range stages {
			recycleStage(buf)
		}
		out.Waste = 0
		return out, err
	}
	for si, gi := range staged {
		g := groups[gi]
		stage := stages[si]
		for _, i := range g.Index {
			src := runs[i].Off - g.Cover.Off
			if mutate.Enabled(mutate.StorageSieveScatterOffby) && runs[i].End() < g.Cover.End() {
				src++
			}
			copy(reqs[i].Data, stage[src:])
		}
		recycleStage(stage)
	}
	return out, nil
}

// Cover staging buffers are transient per-call scratch — the same
// size-classed free-list idiom as the MPI runtime's message staging
// (internal/mpi/bufpool.go). Plain memory, never charged to the
// simulated-memory accountant, so sieving cannot shift allocation fault
// streams.
const (
	minStageShift = 6  // 64 B
	maxStageShift = 26 // 64 MiB; larger covers fall back to the heap
)

var stagePools [maxStageShift - minStageShift + 1]sync.Pool

// getStage returns a length-n staging buffer from the pool. Every byte is
// overwritten by the covering read before scatter, so recycled contents
// never leak.
func getStage(n int) []byte {
	if n <= 0 {
		return nil
	}
	shift := bits.Len(uint(n - 1))
	if shift < minStageShift {
		shift = minStageShift
	}
	if shift > maxStageShift {
		return make([]byte, n)
	}
	if v := stagePools[shift-minStageShift].Get(); v != nil {
		return (*v.(*[]byte))[:n]
	}
	return make([]byte, n, 1<<shift)
}

// recycleStage returns a staging buffer to its size-class pool; only
// buffers getStage handed out (exact power-of-two capacity) are accepted.
func recycleStage(b []byte) {
	c := cap(b)
	if c < 1<<minStageShift || c > 1<<maxStageShift || c&(c-1) != 0 {
		return
	}
	b = b[:c]
	stagePools[bits.TrailingZeros(uint(c))-minStageShift].Put(&b)
}

package storage

// The data-sieving read path (Thakur/Gropp/Lusk, list I/O + data sieving).
// ReadExtentsSieved accepts the same batched noncontiguous request list as
// ReadExtents but plans it through extent.SievePlan first: nearby runs are
// served by one covering read of at most budget bytes, staged in the
// client's reused arena, and the wanted runs are scattered out of the
// staging afterwards.
// The cover requests — not the caller's runs — are what the engine issues,
// so retry handling, trace emission (trace.KindSieve), and virtual-time
// charging (the covers are one posted batch) all apply to them unchanged,
// and the fault-roll identity (client, offset, length, attempt) is a
// deterministic function of the planned covers. A budget too small to
// join any two runs degenerates to list I/O: every run is its own cover,
// passed through with the caller's own buffer and zero waste.

import (
	"fmt"

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
// data-sieving covers of at most budget bytes, posted as one batch at the
// caller's present; the caller's clock advances to the latest completion.
// Requests may be unsorted and may overlap; zero-length requests are
// ignored. With budget <= 0 (or any budget below the smallest joinable
// pair) the plan is pure list I/O.
func (c *Client) ReadExtentsSieved(op string, reqs []Request, budget int64) (SieveResult, error) {
	runs := make([]extent.Extent, len(reqs))
	for i, r := range reqs {
		runs[i] = extent.Extent{Off: r.Off, Len: int64(len(r.Data))}
	}
	groups := extent.SievePlan(runs, budget)
	// A cover that is exactly one caller run reads straight into the
	// caller's buffer: nothing to scatter, nothing wasted. The others are
	// carved back to back from the client's staging arena.
	direct := func(g extent.SieveGroup) bool {
		return len(g.Index) == 1 && g.Cover.Len == runs[g.Index[0]].Len
	}
	var need int64
	for _, g := range groups {
		if !direct(g) {
			need += g.Cover.Len
		}
	}
	if int64(len(c.stage)) < need {
		c.stage = make([]byte, need)
	}

	var out SieveResult
	covers := make([]Request, 0, len(groups))
	staged := make([]int, 0, len(groups)) // indices into groups needing a scatter
	var at int64
	for gi, g := range groups {
		if direct(g) {
			covers = append(covers, reqs[g.Index[0]])
			continue
		}
		covers = append(covers, Request{
			Off:  g.Cover.Off,
			Data: c.stage[at : at+g.Cover.Len],
			Tag:  fmt.Sprintf("sieve cover=%d+%d runs=%d", g.Cover.Off, g.Cover.Len, len(g.Index)),
		})
		staged = append(staged, gi)
		at += g.Cover.Len
		out.Waste += g.Waste(runs)
	}

	res, end, err := c.post(op, trace.KindSieve, covers, read, c.clock.Now(), nil)
	c.clock.AdvanceTo(end)
	out.Result = res
	if err != nil {
		out.Waste = 0
		return out, err
	}
	at = 0
	for _, gi := range staged {
		g := groups[gi]
		stage := c.stage[at : at+g.Cover.Len]
		at += g.Cover.Len
		for _, i := range g.Index {
			src := runs[i].Off - g.Cover.Off
			if mutate.Enabled(mutate.StorageSieveScatterOffby) && runs[i].End() < g.Cover.End() {
				src++
			}
			copy(reqs[i].Data, stage[src:])
		}
	}
	return out, nil
}

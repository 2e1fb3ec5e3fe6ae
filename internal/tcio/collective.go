package tcio

// The two-phase collective read (Config.CollectiveRead, DESIGN.md §2d) —
// OCIO's read-side discipline grafted onto TCIO's window machinery. Phase
// one: the ranks exchange their queued read intents (coalesced
// file-absolute runs) with one allgather, and each rank posts the union of
// all intents falling in its own segments — through the data sieve when
// SieveBuffer > 0, as whole-segment populations otherwise — into its own
// window under its own lock (populate), so each file-domain extent is
// fetched exactly once, by its owner, with no remote exclusive-lock traffic.
// A barrier publishes the windows. Phase two is the usual overlapped
// one-sided gets (read.go fetchGets), which redistribute every rank's runs
// as their segments land.

import (
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
)

// fetchCollective is Fetch under Config.CollectiveRead. Unlike the
// independent path it has no empty-queue fast exit: a rank with nothing
// queued must still join the exchange and the barrier, and may still owe
// staging work for other ranks' intents.
func (f *File) fetchCollective() error {
	groups := f.groupPending()

	// Exchange read intents. Encoding is fixed-width little-endian
	// (offset, length) pairs — identical on every platform, so the blob
	// bytes are part of the deterministic replay surface.
	var mine []extent.Extent
	for _, g := range groups {
		for _, r := range g.reqs {
			mine = append(mine, extent.Extent{Off: r.off, Len: int64(len(r.dst))})
		}
	}
	all, err := f.c.AllgatherBytes(extent.AppendRuns(nil, extent.Coalesce(mine)))
	if err != nil {
		return err
	}
	f.stats.TwoPhaseExchanges++
	if mutate.Enabled(mutate.TCIOTwoPhaseDropIntent) {
		// Planted fault: the exchange silently loses the highest-ranked
		// contributing origin's intents, so the runs it needs from other
		// owners' segments are never staged. Every rank drops the same
		// blob, so the mutant stays deadlock-free — only wrong.
		for i := len(all) - 1; i >= 0; i-- {
			if len(all[i]) > 0 {
				all[i] = nil
				break
			}
		}
	}
	var intents []extent.Extent
	for _, b := range all {
		if intents, err = extent.DecodeRuns(intents, b); err != nil {
			return err
		}
	}

	me := f.c.Rank()
	if need := ownStaging(f.layout, me, intents); len(need) > 0 {
		if err := f.win.Lock(me, true); err != nil {
			return err
		}
		var jobs []popJob
		for len(need) > 0 {
			// The segment's runs lead the list; populate takes them relative.
			seg := f.layout.Segment(need[0].Off)
			base, n := f.layout.SegStart(seg), 0
			for ; n < len(need) && need[n].Off < f.layout.SegStart(seg+1); n++ {
				need[n].Off -= base
			}
			if !f.populated(seg) {
				jobs = append(jobs, popJob{seg: seg, runs: need[:n]})
			}
			need = need[n:]
		}
		err := f.populate(jobs)
		if uerr := f.win.Unlock(me); err == nil {
			err = uerr
		}
		if err != nil {
			return err
		}
	}
	// The barrier publishes every owner's freshly staged window before any
	// rank's gets start — the boundary between the two phases.
	if err := f.c.Barrier(); err != nil {
		return err
	}
	return f.fetchGets(groups)
}

// ownStaging is rank me's share of the intents: the plan (extent.Cut) cuts
// them at segment boundaries and groups the pieces by owner, so each byte is
// one rank's to stage. Me's group comes back merged, re-cut at segment
// boundaries and ascending, each segment's runs contiguous.
func ownStaging(l extent.Layout, me int, intents []extent.Extent) []extent.Extent {
	first := make([]int, l.P+1)
	plan := extent.Cut(l, nil, first, intents)
	return extent.SplitAt(extent.Coalesce(plan[first[me]:first[me+1]]), l.SegSize)
}

package tcio

// The journal tier (Config.Journal; DESIGN.md §2f): at every Flush and
// Close each rank appends its own segments' not-yet-journaled dirty runs
// to a per-rank journal file as one checksummed epoch batch sealed by a
// commit marker, through the same charged storage path as data writes.
// The epoch log buys two things:
//
//   - crash consistency: Recover (recover.go) replays committed epochs to
//     a byte-exact file state after a crash at any virtual time;
//
//   - out-of-core operation: once a dirty segment's bytes are journaled,
//     evicting it under Config.SegmentMemoryBudget is free — the slot is
//     marked non-resident and its bytes re-fault from the journal when the
//     drain (or a re-dirtying write) needs them again.
//
// The journal is truncated only after Close's final drain settled, so at
// every instant either the data file or the journal holds each committed
// byte.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/wal"
)

// WALFileName names the journal file of one rank's session on a data file.
func WALFileName(name string, rank int) string {
	return fmt.Sprintf("%s.wal.%d", name, rank)
}

// journalEpoch closes the current flush epoch: it advances the collective
// epoch counter, journals every unlogged run of this rank's segments (the
// owner's window holds the epoch's final bytes — the caller's barrier
// published all puts), and then enforces the segment budget by evicting
// resident slots past it. Collective structure: every armed rank calls it
// at the same point of Flush/Close, so the counter stays identical
// everywhere even on ranks whose epoch is empty.
func (f *File) journalEpoch() error {
	f.epoch++
	if f.jw == nil {
		return nil
	}
	var (
		runs  []wal.Run
		slots []int64
		need  int64
	)
	type slotRuns struct {
		slot int64
		base int64
		runs []extent.Extent
	}
	var collected []slotRuns
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		un := f.meta.takeUnlogged(seg)
		if len(un) == 0 {
			continue
		}
		if f.nonResident[slot] {
			// A spilled slot was re-dirtied: fault its journaled bytes back
			// in (a charged journal read) before merging the new runs.
			if err := f.refaultSlot(slot); err != nil {
				return err
			}
		}
		collected = append(collected, slotRuns{slot: slot, base: f.layout.SegStart(seg), runs: un})
		need += extent.Total(un)
	}
	if len(collected) > 0 {
		// Snapshot the window bytes into the session's staging buffer: every
		// consumer (the wal encoder) copies before AppendEpoch returns, so one
		// buffer serves all epochs.
		arena := f.stagingBuf(need)
		var pos int64
		for _, sr := range collected {
			for _, r := range sr.runs {
				dst := arena[pos : pos+r.Len]
				f.win.SnapshotLocalInto(dst, sr.slot*f.layout.SegSize+r.Off)
				runs = append(runs, wal.Run{
					Extent: extent.Extent{Off: sr.base + r.Off, Len: r.Len},
					Data:   dst,
				})
				slots = append(slots, sr.slot)
				pos += r.Len
			}
		}
		refs, err := f.jw.AppendEpoch(f.epoch, runs)
		if err != nil {
			return fmt.Errorf("tcio: journal epoch %d: %w", f.epoch, err)
		}
		for i, ref := range refs {
			f.spillRefs[slots[i]] = append(f.spillRefs[slots[i]], ref)
		}
		ws := f.jw.Stats()
		f.stats.JournalEpochs = ws.Epochs
		f.stats.JournalAppends = ws.Appends
		f.stats.JournalBytes = ws.Bytes
		f.stats.JournalCommits = ws.Commits
	}
	return f.enforceBudget()
}

// enforceBudget evicts resident slots, in ascending slot order, until at
// most budgetSegs remain. Every dirty byte was journaled by the epoch that
// just closed, so a dirty eviction is a pure spill: mark the slot
// non-resident and leave its pending runs for the drain, which re-faults
// the bytes from the journal. A slot with nothing undrained would drop for
// free; the budget runs only before the final drain, so no slot reaches it
// (Stats.CleanDrops stays 0).
func (f *File) enforceBudget() error {
	if f.budgetSegs <= 0 {
		return nil
	}
	resident := 0
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		if f.slotResident(slot) {
			resident++
		}
	}
	for slot := int64(0); slot < int64(f.layout.NumSeg) && resident > f.budgetSegs; slot++ {
		if !f.slotResident(slot) {
			continue
		}
		seg := f.layout.RankSegment(f.c.Rank(), slot)
		if f.meta.hasPending(seg) {
			if mutate.Enabled(mutate.TCIOSpillDropDirty) {
				// Mutant: discard the undrained runs instead of spilling —
				// the drain never writes them and the bytes are lost.
				f.meta.takePending(seg)
				delete(f.spillRefs, slot)
			}
			f.nonResident[slot] = true
			f.stats.SpillSegments++
		} else {
			// Nothing undrained in the slot: its bytes are on the data
			// file, so the journal copies need never be read back.
			f.nonResident[slot] = true
			delete(f.spillRefs, slot)
			f.stats.CleanDrops++
		}
		resident--
	}
	return nil
}

// slotResident reports whether a local slot currently holds buffered data
// that counts against the segment budget.
func (f *File) slotResident(slot int64) bool {
	if f.nonResident[slot] {
		return false
	}
	seg := f.layout.RankSegment(f.c.Rank(), slot)
	return f.meta.isWritten(seg)
}

// refaultSlot reads a spilled slot's journaled bytes back from the journal
// file — the charged read a real out-of-core buffer would pay to page a
// spilled segment in — and marks the slot resident again.
func (f *File) refaultSlot(slot int64) error {
	for _, ref := range f.spillRefs[slot] {
		if err := f.jw.ReadBack(ref, f.stagingBuf(ref.Len)); err != nil {
			return fmt.Errorf("tcio: re-fault slot %d: %w", slot, err)
		}
		f.stats.SpillRefaultBytes += ref.Len
	}
	delete(f.spillRefs, slot)
	delete(f.nonResident, slot)
	return nil
}

// refaultSpilled pages every still-spilled slot back in; the final drain
// calls it first, so the drain's window reads are honest — a spilled
// segment's bytes are not resident, in simulated terms, until the journal
// read-back completes.
func (f *File) refaultSpilled() error {
	if f.jw == nil {
		return nil
	}
	for slot := int64(0); slot < int64(f.layout.NumSeg); slot++ {
		if !f.nonResident[slot] {
			continue
		}
		if err := f.refaultSlot(slot); err != nil {
			return err
		}
	}
	return nil
}

// truncateJournal retires the journal after the final drain settled. On
// failure the journal is preserved — recovery replaying a stale journal is
// byte-safe (it rewrites bytes the drain already wrote), while a missing
// journal over a torn drain is not.
func (f *File) truncateJournal() error {
	if f.jw == nil {
		return nil
	}
	if err := f.jw.Truncate(); err != nil {
		return fmt.Errorf("tcio: truncate journal: %w", err)
	}
	return nil
}

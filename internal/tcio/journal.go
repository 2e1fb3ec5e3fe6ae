package tcio

// The journal tier (Config.Journal; DESIGN.md §2f): at every Flush and
// Close each rank appends its own segments' not-yet-journaled dirty runs
// to a per-rank journal file as one checksummed epoch batch sealed by a
// commit marker, through the same charged storage path as data writes.
// The epoch log buys crash consistency: Recover (recover.go) replays
// committed epochs to a byte-exact file state after a crash at any virtual
// time. The journal is truncated only after Close's final drain settled,
// so at every instant either the data file or the journal holds each
// committed byte.

import (
	"fmt"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/wal"
)

// WALFileName names the journal file of one rank's session on a data file.
func WALFileName(name string, rank int) string {
	return fmt.Sprintf("%s.wal.%d", name, rank)
}

// journalEpoch closes the current flush epoch: it advances the collective
// epoch counter, journals every unlogged run of this rank's segments (the
// owner's window holds the epoch's final bytes — the caller's barrier
// published all puts). Collective structure: every armed rank calls it at
// the same point of Flush/Close, so the counter stays identical everywhere
// even on ranks whose epoch is empty.
func (f *File) journalEpoch() error {
	f.epoch++
	if f.jw == nil {
		return nil
	}
	var (
		runs []wal.Run
		need int64
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
				pos += r.Len
			}
		}
		if err := f.jw.AppendEpoch(f.epoch, runs); err != nil {
			return fmt.Errorf("tcio: journal epoch %d: %w", f.epoch, err)
		}
		ws := f.jw.Stats()
		f.stats.JournalEpochs = ws.Epochs
		f.stats.JournalAppends = ws.Appends
		f.stats.JournalBytes = ws.Bytes
		f.stats.JournalCommits = ws.Commits
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

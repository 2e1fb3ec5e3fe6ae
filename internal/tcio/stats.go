package tcio

// Counters and trace hooks shared by all of the library's paths.

import (
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// Stats counts the library's internal activity on one rank — used by the
// ablation benchmarks and tests.
type Stats struct {
	Writes       int64 // application write calls
	Reads        int64 // application read calls
	Level1Flush  int64 // level-1 -> level-2 shipments (one-sided puts)
	Gets         int64 // level-2 -> application transfers (one-sided gets)
	Populations  int64 // whole segments this rank read from the file system (preload or demand)
	FSWrites     int64 // file system write requests (the drain at Close)
	BytesWritten int64
	BytesRead    int64
	// Retries counts transient faults this rank absorbed with backoff
	// across all library paths (file system RPCs and one-sided puts).
	Retries int64

	// Journal tier (Config.Journal; DESIGN.md §2f).
	// JournalEpochs counts non-empty epoch batches appended to this rank's
	// journal; JournalAppends the storage write requests they issued
	// (batches plus commit markers — the journal's contribution to the
	// file system request stream); JournalBytes the journal bytes written.
	// JournalCommits counts commit markers: equal to JournalEpochs in a
	// correct writer, and the observable gap of the skip-commit-marker
	// mutant.
	JournalEpochs  int64
	JournalAppends int64
	JournalBytes   int64
	JournalCommits int64

	// EpochEvictions counts put epochs closed early because the pipeline
	// window was full — churn the LRU eviction policy is meant to minimize.
	EpochEvictions int64

	// Virtual time spent in the phases of level-1 -> level-2 shipment,
	// for performance diagnosis and the ablation reports.
	LockWait   simtime.Duration
	PutIssue   simtime.Duration
	UnlockWait simtime.Duration
}

// Stats returns this rank's activity counters.
func (f *File) Stats() Stats { return f.stats }

// tracing reports whether this run records trace events. Per-call and
// per-flush sites test it before formatting an event's detail string.
func (f *File) tracing() bool { return f.cfg.Trace != nil }

// emit records a trace event when tracing is enabled.
func (f *File) emit(kind trace.Kind, start simtime.Time, bytes int64, detail string) {
	if !f.tracing() {
		return
	}
	f.cfg.Trace.Record(trace.Event{
		Rank:   f.c.Rank(),
		Start:  start,
		Dur:    f.c.Now().Sub(start),
		Kind:   kind,
		Bytes:  bytes,
		Detail: detail,
	})
}

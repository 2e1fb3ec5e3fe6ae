// Package tcio implements Transparent Collective I/O — the contribution of
// the paper. TCIO lets a parallel application issue plain POSIX-like I/O
// calls, one per piece of data, and transparently converts the resulting
// small, interleaved, non-contiguous accesses into large aggregated file
// system requests. No file views, no derived datatypes, no application-level
// combine buffers.
//
// The design follows §IV of the paper:
//
//   - A level-1 buffer per process coalesces small sequential accesses that
//     fall inside one level-2 segment. It is exactly one segment long and is
//     aligned with one segment at a time.
//
//   - Level-2 buffers are exposed through an MPI one-sided window. Each
//     process owns NumSegments segments of SegmentSize bytes, and global
//     file offsets map onto them round-robin via the paper's equations:
//
//     rank(offset)    = (offset / SegmentSize) % P     (1)
//     segment(offset) = (offset / SegmentSize) / P     (2)
//     disp(offset)    =  offset % SegmentSize          (3)
//
//     (extent.Layout is the reusable form of this mapping.)
//
//   - All level-1 ↔ level-2 movement uses passive-target one-sided
//     communication (lock / put / get / unlock) carrying the coalesced
//     block list as a single indexed-datatype transfer. No matching pairs
//     are needed, so every rank may issue a different number of I/O calls.
//
//   - Reads are lazy: Read/ReadAt only record destinations; data moves on
//     Fetch, on realignment, or at Close.
//
// SegmentSize defaults to the file system's stripe size — its lock
// granularity — as §IV.A prescribes.
//
// The implementation is split by layer: level1.go is the per-process
// coalescing buffer, level2.go the one-sided window traffic, read.go the
// lazy read queue and Fetch, drain.go the file system transfers (through
// package storage), and stats.go the counters and trace hooks.
package tcio

import (
	"errors"
	"fmt"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/trace"
)

// Mode selects the direction of a TCIO file session.
type Mode int

// Open modes.
const (
	// WriteMode buffers writes in level-1/level-2 and drains them to the
	// file system at Close.
	WriteMode Mode = iota
	// ReadMode serves lazy reads from level-2 segments populated on demand
	// from the file system.
	ReadMode
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case WriteMode:
		return "write"
	case ReadMode:
		return "read"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

const (
	// fetchBatch is the number of segment switches the lazy read queue may
	// hold before the library fetches it implicitly (the paper's "file
	// domain of cached reads exceeds the level-1 buffer" rule, generalized
	// to a batch so that the one-sided gets of many segments pipeline
	// through one lock epoch per owner). A switch is a read landing in
	// another segment than the read before it, so forward reads count their
	// distinct segments, while reads alternating between two segments count
	// one switch each. Fetch boundaries decide virtual time, so the rule is
	// pinned as it is.
	fetchBatch = 64
	// pipelineDepth bounds the number of put epochs a writer keeps open
	// concurrently, and the outstanding Rput handles. Each level-1 flush
	// leaves its epoch open so transfers overlap; beyond the depth the
	// oldest epoch is closed (waiting for its transfer). This models a
	// bounded NIC queue: TCIO paces its traffic instead of bursting like the
	// two-phase exchange.
	pipelineDepth = 8
	// writeBehindQueue bounds the eager drains in flight on the background
	// queue; enqueueing past the bound waits for the earliest in-flight
	// batch (backpressure) — roughly a block layer's request queue.
	writeBehindQueue = 32
)

// Config tunes the library. The zero value is usable: SegmentSize defaults
// to the file system stripe size and NumSegments to 64.
type Config struct {
	// SegmentSize is the level-2 segment length in bytes. The paper sets
	// it to the file system's lock granularity (stripe size); 0 means
	// "use the stripe size".
	SegmentSize int64
	// NumSegments is the number of level-2 segments each process exposes.
	// Together the processes must cover the file: P * NumSegments *
	// SegmentSize >= file size. 0 means 64.
	NumSegments int

	// DisableLevel1 is an ablation switch: every piece is shipped to the
	// level-2 buffer immediately, with its own one-sided operation,
	// instead of being coalesced in the level-1 buffer first.
	DisableLevel1 bool
	// DemandPopulate is an ablation switch for reads. By default, opening
	// in read mode makes every rank load its own level-2 segments from the
	// file system (the paper's aggregators acting "as I/O delegators to
	// move the data from files to their temporary buffers"). With
	// DemandPopulate, segments are instead loaded lazily by the first
	// rank that fetches from them: a fetch posts its batch's missing
	// segments at once, under their owners' exclusive window locks.
	DemandPopulate bool
	// WriteBehind arms the eager background drain: once the not-yet-
	// drained runs of a level-2 segment cover all of it, the owning rank
	// drains the segment on a background lane instead of waiting for
	// Close, so the final drain only handles the residue. The file system
	// request identity stays bit-identical to the synchronous drain. Off
	// (the default) drains everything at Close.
	WriteBehind bool
	// Journal arms the crash-consistency tier in write mode: every Flush
	// and Close appends the epoch's not-yet-journaled dirty runs to a
	// per-rank journal file (name + ".wal.<rank>") as length-prefixed,
	// checksummed records sealed by a commit marker, through the same
	// charged storage path as data writes. Close truncates the journal
	// only after the final drain settled, so Recover can replay committed
	// epochs to a byte-exact file state after a crash at any virtual
	// time. Off (the default) keeps the write path bit-identical to the
	// unjournaled library, including its fault rolls. See DESIGN.md §2f.
	Journal bool
	// SegmentMemoryBudget bounds the level-2 segments a rank keeps
	// resident in write mode, in bytes (rounded down to whole segments,
	// minimum one). When the segments holding buffered data exceed the
	// budget, the journal tier spills them: clean segments are dropped,
	// dirty segments — whose bytes every epoch already journaled — are
	// marked non-resident and re-faulted from the journal when the drain
	// needs them, so datasets larger than memory complete where a purely
	// in-memory collective buffer would exhaust its share. A non-zero
	// budget implies Journal (the spill tier is meaningless without the
	// epoch log). 0 disables the budget (the default).
	SegmentMemoryBudget int64
	// Trace, when non-nil, records the library's operations (writes,
	// flushes, fetches, populations, drains) with virtual timestamps.
	Trace *trace.Recorder
	// Retry bounds how the library absorbs transient injected faults on
	// its file system and one-sided paths (populate, preload, drain,
	// ship). nil means faults.DefaultRetryPolicy(); a zero-budget policy
	// (&faults.RetryPolicy{}) turns the first transient fault permanent.
	Retry *faults.RetryPolicy
}

// Errors returned by the library.
var (
	// ErrMode is returned for writes on a read handle and vice versa.
	ErrMode = errors.New("tcio: operation does not match open mode")
	// ErrCapacity is returned when an access maps past the level-2
	// buffers (offset >= P * NumSegments * SegmentSize).
	ErrCapacity = errors.New("tcio: access beyond level-2 buffer capacity")
	// ErrClosed is returned for operations on a closed handle.
	ErrClosed = errors.New("tcio: file closed")
)

// File is one rank's TCIO handle on a shared file: a file pointer and a
// closed flag over the per-file session (see session.go). A rank may hold
// any number of concurrently open Files; each one's session — window
// memory, shared level-2 metadata, background lanes, stats — is fully
// independent of the others'.
type File struct {
	session

	pos    int64
	closed bool
}

// Open starts a TCIO session on the named shared file. It is collective:
// every rank must call it with the same name, mode, and configuration —
// and when several files are open concurrently, every rank must issue
// their collective calls (Open, Flush, Close) in the same order.
// Window memory (NumSegments * SegmentSize) plus one level-1 buffer is
// charged against the rank's simulated memory share.
func Open(c *mpi.Comm, name string, mode Mode, cfg Config) (*File, error) {
	if mode != WriteMode && mode != ReadMode {
		return nil, fmt.Errorf("tcio: invalid mode %d", int(mode))
	}
	cfg, err := cfg.Normalize(c.FS().Config().StripeSize)
	if err != nil {
		return nil, err
	}
	s, err := newSession(c, name, mode, cfg)
	if err != nil {
		return nil, err
	}
	f := &File{session: s}
	if mode == ReadMode && !cfg.DemandPopulate {
		if err := f.preloadAll(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Capacity reports the total file range the level-2 buffers can hold.
func (f *File) Capacity() int64 { return f.layout.Capacity() }

// Seek positions the file pointer. whence follows io.Seeker: 0 = absolute,
// 1 = relative to the current position (2, end-relative, is not supported:
// the library does not track a global end-of-file).
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var next int64
	switch whence {
	case 0:
		next = offset
	case 1:
		next = f.pos + offset
	default:
		return f.pos, fmt.Errorf("tcio: Seek whence %d not supported", whence)
	}
	if next < 0 {
		return f.pos, fmt.Errorf("tcio: Seek to negative offset %d", next)
	}
	f.pos = next
	return f.pos, nil
}

// Flush drains the level-1 buffer to the level-2 buffers on every rank.
// It is collective (the paper's tcio_flush "invokes MPI_Barrier").
func (f *File) Flush() error {
	if f.closed {
		return ErrClosed
	}
	if f.mode == WriteMode {
		if err := f.flushLevel1(); err != nil {
			return err
		}
		if err := f.closeEpochs(); err != nil {
			return err
		}
	}
	if err := f.c.Barrier(); err != nil {
		return err
	}
	if f.mode == WriteMode && f.jw != nil {
		// The barrier published every rank's puts, so the owner's window
		// holds the epoch's final bytes: journal them, then synchronize
		// again so no rank starts the next epoch's shipments while a peer
		// is still appending this one's records.
		if err := f.journalEpoch(); err != nil {
			return err
		}
		if err := f.c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

// Close ends the session (tcio_close). It is collective: in write mode the
// level-1 buffers are drained, all ranks synchronize, and each rank writes
// its own populated level-2 segments to the file system as large aligned
// requests; in read mode any still-pending lazy reads are fetched first, and
// the rank waits for every population it posted to land before any window
// is freed.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	var opErr error
	switch f.mode {
	case WriteMode:
		opErr = f.flushLevel1()
		if err := f.closeEpochs(); err != nil && opErr == nil {
			opErr = err
		}
	case ReadMode:
		opErr = f.Fetch()
		f.c.AdvanceTo(f.landed)
	}
	if err := f.c.Barrier(); err != nil {
		return err
	}
	if f.mode == WriteMode && f.jw != nil {
		// Journal the final epoch before any rank drains: after this
		// barrier every committed byte is durable in some journal, so a
		// crash anywhere inside the drain replays to the full final image.
		if err := f.journalEpoch(); err != nil && opErr == nil {
			opErr = err
		}
		if err := f.c.Barrier(); err != nil {
			return err
		}
	}
	if f.mode == WriteMode {
		// The drains run one rank at a time in (clock, rank) order, so the
		// OSTs serve them in virtual-time order. Every rank takes its turn,
		// one that already failed included, and a failed drain keeps its
		// error and passes the turn on: the peers still waiting for theirs
		// must reach the barrier below.
		if err := f.c.InClockOrder(func() error {
			if opErr == nil {
				opErr = f.drain()
			}
			return nil
		}); err != nil {
			return err
		}
	}
	// Final synchronization so every rank leaves Close at the same
	// virtual time, as MPI_File_close would.
	if err := f.c.Barrier(); err != nil {
		return err
	}
	if f.mode == WriteMode && opErr == nil {
		// The drain settled everywhere (the barrier above), so the journal
		// has done its job; truncating it makes recovery a no-op. Under a
		// local error the journal is deliberately kept — it still holds
		// the committed epochs a recovery would need.
		opErr = f.truncateJournal()
	}
	f.closed = true
	f.release()
	return opErr
}

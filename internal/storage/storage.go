// Package storage is the single file-system access path of the I/O
// libraries. TCIO's drain/populate/preload and OCIO's two-phase I/O phases
// used to hand-roll their own request loops — each with its own retry
// handling, trace emission, and virtual-time bookkeeping. A storage.Client
// folds all of that into one place:
//
//   - every request runs under the shared faults.Retry policy, with the
//     absorbed transient faults counted and traced once;
//   - completion times learned from the file system advance the caller's
//     virtual clock in one place;
//   - a batch of extents is one posted list-I/O request (Thakur et al.,
//     "Optimizing Noncontiguous Accesses in MPI-IO"): the whole list goes
//     to the file system at the batch's start, and the batch completes at
//     its latest completion.
//
// Every request of a batch departs at the same instant and keeps its own
// retry timeline, trace event, per-request server overhead and extent lock.
// The client never waits for request k's completion and acknowledgement
// before request k+1 departs; what serialises two requests is the OST
// Resource they share, and requests on distinct OSTs overlap. Requests are
// issued in list order on the calling goroutine, so a batch is one event at
// this layer, and fault decisions key on stable request identity (client,
// offset, length, attempt), so chaos runs replay identically.
//
// A batch's requests are in flight together: two writes of one batch that
// touch the same byte have no defined order, and such a batch is rejected
// with ErrOverlappingBatch before anything is issued.
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// Clock is the caller's virtual clock. *mpi.Comm satisfies it; the storage
// layer deliberately depends only on this narrow view so it sits below the
// MPI runtime in the package layering.
type Clock interface {
	Now() simtime.Time
	AdvanceTo(t simtime.Time)
}

// gate is the optional half of a Clock: *mpi.Comm's Touch, passed before
// every request that reaches the file system other ranks share.
type gate interface{ Touch(string, simtime.Time) }

// Request is one contiguous extent transfer: fill Data from the file at
// Off (reads) or store Data at Off (writes). Tag is a short description
// carried into trace events and error messages ("seg=12"). A lend
// (LendExtentsFrom) moves no bytes and has no Data: it reads Len bytes at
// Off into Pages, by reference.
type Request struct {
	Off   int64
	Data  []byte
	Tag   string
	Len   int64
	Pages [][]byte
}

// size is the request's length in bytes.
func (r Request) size() int64 {
	if r.Pages != nil {
		return r.Len
	}
	return int64(len(r.Data))
}

// Result summarizes one ReadExtents/WriteExtents batch.
type Result struct {
	// Requests counts the file system requests issued.
	Requests int64
	// Retries counts the transient faults absorbed with backoff.
	Retries int64
}

// Client is the pfs-backed access path tcio, mpiio and delegate program
// against: batch reads and writes of extent lists with retry, tracing, and
// virtual-time charging handled below the call. In its methods op names the
// caller's operation for errors and retry traces ("drain", "populate");
// kind classifies the per-request trace events.
type Client struct {
	pf    *pfs.File
	node  int
	rank  int
	clock Clock
	gate  gate // clock's, or nil

	retry faults.RetryPolicy
	rec   *trace.Recorder

	retries atomic.Int64
}

// NewClient builds a client issuing requests for the given rank on the
// given compute node, charging completion times to clock. The default
// configuration retries with faults.DefaultRetryPolicy and records no trace.
// The clock's gate is looked up here, once: an assertion to an interface
// type on every request would let the runtime's assertion cache allocate at
// random inside a caller's call (1 in 1 024 misses rebuilds it).
func NewClient(pf *pfs.File, node, rank int, clock Clock) *Client {
	g, _ := clock.(gate)
	return &Client{
		pf:    pf,
		node:  node,
		rank:  rank,
		clock: clock,
		gate:  g,
		retry: faults.DefaultRetryPolicy(),
	}
}

// SetRetryPolicy replaces the retry policy of subsequent requests.
func (c *Client) SetRetryPolicy(p faults.RetryPolicy) { c.retry = p }

// SetTrace attaches a trace recorder (nil disables tracing).
func (c *Client) SetTrace(rec *trace.Recorder) { c.rec = rec }

// Retries reports the cumulative transient faults absorbed by this client.
func (c *Client) Retries() int64 { return c.retries.Load() }

// File exposes the underlying simulated file (verification helper).
func (c *Client) File() *pfs.File { return c.pf }

// access is what a batch does with its requests' bytes.
type access int

const (
	read     access = iota // fill Data from the file
	write                  // store a copy of Data
	handOver               // store Data, keeping whole file pages by reference
	lend                   // fill Pages with the file's pages, by reference
)

// ReadExtents fills every request's Data from the file.
func (c *Client) ReadExtents(op string, kind trace.Kind, reqs []Request) (Result, error) {
	return c.run(op, kind, reqs, read)
}

// WriteExtents stores every request's Data into the file.
func (c *Client) WriteExtents(op string, kind trace.Kind, reqs []Request) (Result, error) {
	return c.run(op, kind, reqs, write)
}

// HandOverExtents is WriteExtents for a caller that gives every request's
// Data up: the file system keeps each file page a request covers whole by
// reference instead of copying it (pfs.File.HandOverAtRetry). The caller
// must never write those bytes again once the call returns, whatever it
// returns. Requests, charges, fault rolls and counters are WriteExtents'.
func (c *Client) HandOverExtents(op string, kind trace.Kind, reqs []Request) (Result, error) {
	return c.run(op, kind, reqs, handOver)
}

// ReadExtentsFrom issues the batch departing at start without touching the
// caller's clock, and returns the batch's completion time alongside the
// result. This is the detached-start path of posted reads: tcio's segment
// populations record when their bytes land and let only the consumer of
// those bytes wait. The request set, ordering,
// and fault-roll identity are exactly those of ReadExtents; only whose clock
// pays is different.
func (c *Client) ReadExtentsFrom(op string, kind trace.Kind, reqs []Request, start simtime.Time) (Result, simtime.Time, error) {
	return c.post(op, kind, reqs, read, start, nil)
}

// LendExtentsFrom is ReadExtentsFrom for a caller that takes the file's
// bytes by reference instead of a copy: each request's Pages, long enough for
// every file page its Len bytes touch, receives those pages, lent
// (pfs.File.LendAtRetry): the file system never writes them in place again,
// and the caller must not write them. Requests, charges, fault rolls,
// counters and traces are ReadExtentsFrom's for the same offsets and
// lengths.
func (c *Client) LendExtentsFrom(op string, kind trace.Kind, reqs []Request, start simtime.Time) (Result, simtime.Time, error) {
	return c.post(op, kind, reqs, lend, start, nil)
}

// ReadExtentsEach is ReadExtentsFrom for a caller that serves each request's
// bytes as they arrive instead of waiting for the batch: done, as long as
// reqs, receives every issued request's own completion.
func (c *Client) ReadExtentsEach(op string, kind trace.Kind, reqs []Request, start simtime.Time, done []simtime.Time) (Result, error) {
	res, _, err := c.post(op, kind, reqs, read, start, done)
	return res, err
}

// Truncate resets the backing file to empty as one retried, traced,
// virtual-time-charged control request — the journal-retirement path. op
// names the operation for errors and retry traces; kind classifies the
// trace event.
func (c *Client) Truncate(op string, kind trace.Kind) error {
	start := c.clock.Now()
	c.touch("fs.truncate", start)
	end, retries, err := c.pf.TruncateAtRetry(c.node, start, c.retry)
	c.clock.AdvanceTo(end)
	if retries > 0 {
		c.retries.Add(retries)
		c.emit(trace.KindRetry, start, end, 0, fmt.Sprintf("%s retries=%d", op, retries))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", op, err)
	}
	c.emit(kind, start, end, 0, "truncate")
	return nil
}

// ReadAt is a single-request ReadExtents convenience.
func (c *Client) ReadAt(op string, off int64, dst []byte) error {
	_, err := c.ReadExtents(op, trace.KindFetch, []Request{{Off: off, Data: dst}})
	return err
}

// WriteAt is a single-request WriteExtents convenience.
func (c *Client) WriteAt(op string, off int64, data []byte) error {
	_, err := c.WriteExtents(op, trace.KindDrain, []Request{{Off: off, Data: data}})
	return err
}

func (c *Client) run(op string, kind trace.Kind, reqs []Request, acc access) (Result, error) {
	res, end, err := c.post(op, kind, reqs, acc, c.clock.Now(), nil)
	c.clock.AdvanceTo(end)
	return res, err
}

// touch passes the clock's gate, if it has one, before a request reaches
// the file system other ranks share.
func (c *Client) touch(site string, t simtime.Time) {
	if c.gate != nil {
		c.gate.Touch(site, t)
	}
}

// issue performs one request departing at now and returns its completion
// time and absorbed retries. Writes identify as the node (extent locks are
// node-granular, like Lustre's); reads identify as the rank, so the file
// system's per-process readahead window sees only this rank's sequential
// history.
func (c *Client) issue(r Request, now simtime.Time, acc access) (simtime.Time, int64, error) {
	switch acc {
	case write:
		c.touch("fs.write", now)
		return c.pf.WriteAtRetry(c.node, r.Off, r.Data, now, c.retry)
	case handOver:
		c.touch("fs.write", now)
		return c.pf.HandOverAtRetry(c.node, r.Off, r.Data, now, c.retry)
	case lend:
		c.touch("fs.read", now)
		return c.pf.LendAtRetry(c.rank, r.Off, r.Len, r.Pages, now, c.retry)
	}
	c.touch("fs.read", now)
	return c.pf.ReadAtRetry(c.rank, r.Off, r.Data, now, c.retry)
}

// emit records one trace event (no-op without a recorder).
func (c *Client) emit(kind trace.Kind, start, end simtime.Time, bytes int64, detail string) {
	if c.rec == nil {
		return
	}
	c.rec.Record(trace.Event{
		Rank:   c.rank,
		Start:  start,
		Dur:    end.Sub(start),
		Kind:   kind,
		Bytes:  bytes,
		Detail: detail,
	})
}

// finish folds one completed request into the result, tracing retries and
// the operation itself, and wrapping errors with the request's context.
func (c *Client) finish(op string, kind trace.Kind, r Request, start, end simtime.Time,
	retries int64, err error, res *Result) error {
	if retries > 0 {
		res.Retries += retries
		c.retries.Add(retries)
		c.emit(trace.KindRetry, start, end, 0, fmt.Sprintf("%s %s retries=%d", op, r.Tag, retries))
	}
	if err != nil {
		if r.Tag != "" {
			return fmt.Errorf("%s %s: %w", op, r.Tag, err)
		}
		return fmt.Errorf("%s %d bytes at %d: %w", op, r.size(), r.Off, err)
	}
	res.Requests++
	c.emit(kind, start, end, r.size(), r.Tag)
	return nil
}

// ErrOverlappingBatch rejects a write batch in which two requests touch the
// same byte: a batch's requests are in flight together, so which of the two
// lands last is not defined (and the crash Oplog could replay either order).
var ErrOverlappingBatch = errors.New("storage: two writes of one batch overlap")

// checkDisjoint returns ErrOverlappingBatch, naming the first offending
// pair, if two non-empty requests share a byte. The drains hand over
// ascending lists, which cost one pass and no allocation.
func checkDisjoint(reqs []Request) error {
	byOff := func(a, b Request) int { return cmp.Compare(a.Off, b.Off) }
	if !slices.IsSortedFunc(reqs, byOff) {
		reqs = slices.Clone(reqs)
		slices.SortFunc(reqs, byOff)
	}
	var prev *Request
	for i := range reqs {
		r := &reqs[i]
		if len(r.Data) == 0 {
			continue
		}
		if prev != nil && r.Off < prev.Off+int64(len(prev.Data)) {
			return fmt.Errorf("%w: [%d,+%d) and [%d,+%d)", ErrOverlappingBatch,
				prev.Off, len(prev.Data), r.Off, len(r.Data))
		}
		prev = r
	}
	return nil
}

// post issues the batch as one posted list-I/O request departing at start
// and reports its latest completion instead of advancing any clock — the
// one engine under both the synchronous entry points and the detached-start
// lanes. Requests are issued in list order, each on its own retry timeline
// from start, and a non-nil each receives every one's own completion; issue
// stops at the first request whose retries are exhausted, so on an error
// exactly the first res.Requests requests succeeded.
func (c *Client) post(op string, kind trace.Kind, reqs []Request, acc access, start simtime.Time, each []simtime.Time) (Result, simtime.Time, error) {
	if mutate.Enabled(mutate.StorageDropLastRequest) && len(reqs) > 1 {
		reqs = reqs[:len(reqs)-1]
	}
	if acc == write || acc == handOver {
		if err := checkDisjoint(reqs); err != nil {
			return Result{}, start, fmt.Errorf("%s: %w", op, err)
		}
	}
	var res Result
	end := start
	for i, r := range reqs {
		done, retries, err := c.issue(r, start, acc)
		end = max(end, done)
		if each != nil {
			each[i] = done
		}
		if ferr := c.finish(op, kind, r, start, done, retries, err, &res); ferr != nil {
			return res, end, ferr
		}
	}
	return res, end, nil
}

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
//   - batches of extents can fan out across per-OST lanes (bounded by the
//     Workers knob), so multi-stripe drains overlap across object storage
//     targets in virtual time instead of issuing serially.
//
// The fan-out is modelled, not host concurrency: requests are grouped by
// the OST serving them, groups are dealt to lanes in OST order, every lane
// departs at the batch's start and walks its groups serially, accumulating
// virtual time exactly as the serial path does, and the lanes themselves
// are walked one after the other on the calling goroutine. Two requests
// only overlap when they target different OSTs — the hardware parallelism
// being modelled. Fault decisions key on stable request identity (client,
// offset, length, attempt), so chaos runs replay identically at any lane
// count.
package storage

import (
	"fmt"
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

// Request is one contiguous extent transfer: fill Data from the file at
// Off (reads) or store Data at Off (writes). Tag is a short description
// carried into trace events and error messages ("seg=12").
type Request struct {
	Off  int64
	Data []byte
	Tag  string
}

// Result summarizes one ReadExtents/WriteExtents batch.
type Result struct {
	// Requests counts the file system requests issued.
	Requests int64
	// Retries counts the transient faults absorbed with backoff.
	Retries int64
	// Bytes counts the real bytes moved by successful requests.
	Bytes int64
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

	retry   faults.RetryPolicy
	rec     *trace.Recorder
	workers int

	retries atomic.Int64
}

// NewClient builds a client issuing requests for the given rank on the
// given compute node, charging completion times to clock. The default
// configuration retries with faults.DefaultRetryPolicy, records no trace,
// and issues serially (one worker).
func NewClient(pf *pfs.File, node, rank int, clock Clock) *Client {
	return &Client{
		pf:    pf,
		node:  node,
		rank:  rank,
		clock: clock,
		retry: faults.DefaultRetryPolicy(),
	}
}

// SetRetryPolicy replaces the retry policy of subsequent requests.
func (c *Client) SetRetryPolicy(p faults.RetryPolicy) { c.retry = p }

// SetTrace attaches a trace recorder (nil disables tracing).
func (c *Client) SetTrace(rec *trace.Recorder) { c.rec = rec }

// SetWorkers bounds the modelled per-OST fan-out of extent batches. Values
// below 2 select the serial path, which preserves the exact request
// ordering and timing of the classic one-at-a-time loop.
func (c *Client) SetWorkers(n int) { c.workers = n }

// Workers reports the configured fan-out bound.
func (c *Client) Workers() int {
	if c.workers < 1 {
		return 1
	}
	return c.workers
}

// Retries reports the cumulative transient faults absorbed by this client.
func (c *Client) Retries() int64 { return c.retries.Load() }

// File exposes the underlying simulated file (verification helper).
func (c *Client) File() *pfs.File { return c.pf }

// ReadExtents fills every request's Data from the file.
func (c *Client) ReadExtents(op string, kind trace.Kind, reqs []Request) (Result, error) {
	return c.run(op, kind, reqs, false)
}

// WriteExtents stores every request's Data into the file.
func (c *Client) WriteExtents(op string, kind trace.Kind, reqs []Request) (Result, error) {
	return c.run(op, kind, reqs, true)
}

// ReadExtentsFrom issues the batch departing at start without touching the
// caller's clock, and returns the batch's completion time alongside the
// result. This is the detached-start path backing the overlap pipeline:
// tcio's write-behind and prefetch lanes charge transfers to a background
// timeline and synchronize with it only when the caller actually needs the
// outcome. The request set, ordering, and fault-roll identity are exactly
// those of ReadExtents; only whose clock pays is different.
func (c *Client) ReadExtentsFrom(op string, kind trace.Kind, reqs []Request, start simtime.Time) (Result, simtime.Time, error) {
	return c.runFrom(op, kind, reqs, false, start)
}

// WriteExtentsFrom is the detached-start variant of WriteExtents; see
// ReadExtentsFrom.
func (c *Client) WriteExtentsFrom(op string, kind trace.Kind, reqs []Request, start simtime.Time) (Result, simtime.Time, error) {
	return c.runFrom(op, kind, reqs, true, start)
}

// Truncate resets the backing file to empty as one retried, traced,
// virtual-time-charged control request — the journal-retirement path. op
// names the operation for errors and retry traces; kind classifies the
// trace event.
func (c *Client) Truncate(op string, kind trace.Kind) error {
	start := c.clock.Now()
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

func (c *Client) run(op string, kind trace.Kind, reqs []Request, write bool) (Result, error) {
	if len(reqs) == 0 {
		return Result{}, nil
	}
	res, end, err := c.runFrom(op, kind, reqs, write, c.clock.Now())
	c.clock.AdvanceTo(end)
	return res, err
}

// runFrom issues the batch from an explicit departure time and reports its
// makespan end instead of advancing any clock — the shared engine under
// both the synchronous entry points and the detached-start lanes.
func (c *Client) runFrom(op string, kind trace.Kind, reqs []Request, write bool, start simtime.Time) (Result, simtime.Time, error) {
	if len(reqs) == 0 {
		return Result{}, start, nil
	}
	if c.Workers() > 1 && len(reqs) > 1 {
		return c.runParallel(op, kind, reqs, write, start)
	}
	return c.runSerial(op, kind, reqs, write, start)
}

// issue performs one request departing at now and returns its completion
// time and absorbed retries. Writes identify as the node (extent locks are
// node-granular, like Lustre's); reads identify as the rank, so the file
// system's per-process readahead window sees only this rank's sequential
// history.
func (c *Client) issue(r Request, now simtime.Time, write bool) (simtime.Time, int64, error) {
	if write {
		return c.pf.WriteAtRetry(c.node, r.Off, r.Data, now, c.retry)
	}
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
		return fmt.Errorf("%s %d bytes at %d: %w", op, len(r.Data), r.Off, err)
	}
	res.Requests++
	res.Bytes += int64(len(r.Data))
	c.emit(kind, start, end, int64(len(r.Data)), r.Tag)
	return nil
}

// runSerial issues the batch one request at a time, each departing when the
// previous completed — the classic loop, kept bit-identical for Workers <= 1.
func (c *Client) runSerial(op string, kind trace.Kind, reqs []Request, write bool, start simtime.Time) (Result, simtime.Time, error) {
	if mutate.Enabled(mutate.StorageDropLastRequest) && len(reqs) > 1 {
		reqs = reqs[:len(reqs)-1]
	}
	var res Result
	now := start
	for _, r := range reqs {
		depart := now
		end, retries, err := c.issue(r, depart, write)
		now = end
		if ferr := c.finish(op, kind, r, depart, end, retries, err, &res); ferr != nil {
			return res, now, ferr
		}
	}
	return res, now, nil
}

// runParallel models the batch fanned out across per-OST lanes. Every lane
// starts at the batch's departure instant and walks its OST groups serially,
// accumulating virtual time within the group exactly as the serial path
// does, so requests only overlap — in virtual time — across distinct OSTs.
// The lanes own disjoint OSTs, so they are walked one after the other on
// the calling goroutine: the order in which they reach the file system is a
// function of the batch, not of the host. The reported end is the latest
// completion — the fan-out's makespan.
func (c *Client) runParallel(op string, kind trace.Kind, reqs []Request, write bool, start simtime.Time) (Result, simtime.Time, error) {
	// Group requests by serving OST, preserving request order per group and
	// ordering groups by OST index so the lane assignment is deterministic.
	groupOf := make(map[int]int)
	var groups [][]Request
	var osts []int
	for _, r := range reqs {
		ost := c.pf.OSTOf(r.Off)
		gi, ok := groupOf[ost]
		if !ok {
			gi = len(groups)
			groupOf[ost] = gi
			groups = append(groups, nil)
			osts = append(osts, ost)
		}
		groups[gi] = append(groups[gi], r)
	}
	order := make([]int, 0, len(groups))
	for gi := range groups {
		order = append(order, gi)
	}
	for i := 1; i < len(order); i++ { // insertion sort by OST index (tiny n)
		for j := i; j > 0 && osts[order[j-1]] > osts[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}

	workers := min(c.Workers(), len(order))
	var res Result
	var firstErr error
	maxEnd := start
	for w := 0; w < workers; w++ {
		now := start
	lane:
		for oi := w; oi < len(order); oi += workers {
			for _, r := range groups[order[oi]] {
				depart := now
				end, retries, err := c.issue(r, depart, write)
				maxEnd = max(maxEnd, end)
				now = end
				if ferr := c.finish(op, kind, r, depart, end, retries, err, &res); ferr != nil {
					// A failed lane stops; the others still run their course.
					if firstErr == nil {
						firstErr = ferr
					}
					break lane
				}
			}
		}
	}
	return res, maxEnd, firstErr
}

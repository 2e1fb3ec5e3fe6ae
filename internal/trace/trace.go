// Package trace records I/O-library events on a virtual-time timeline.
//
// A Recorder is attached to a TCIO session (tcio.Config.Trace) to capture
// what the library did on behalf of the application — writes staged,
// level-1 flushes shipped, segments populated, gets fetched, buffers
// drained — with per-rank virtual timestamps. Timelines are the raw
// material for the kind of I/O analysis the paper performs by hand.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tcio/tcio/internal/simtime"
)

// Kind classifies an event.
type Kind string

// Event kinds emitted by the I/O layers.
const (
	KindWrite    Kind = "write"    // application write call staged
	KindRead     Kind = "read"     // application read call queued
	KindFlush    Kind = "flush"    // level-1 -> level-2 shipment
	KindFetch    Kind = "fetch"    // batched gets completed
	KindPopulate Kind = "populate" // segment loaded from the file system
	KindDrain    Kind = "drain"    // level-2 -> file system write
	KindRetry    Kind = "retry"    // transient fault absorbed by backoff
	KindJournal  Kind = "journal"  // epoch record batch appended to the WAL tier
	// KindCacheServe marks a delegation-server read served from a block
	// the server already holds instead of a line fill.
	KindCacheServe Kind = "cache-serve"
)

// Event is one recorded operation.
type Event struct {
	Rank   int
	Start  simtime.Time
	Dur    simtime.Duration
	Kind   Kind
	Bytes  int64
	Detail string
}

// traceShards is the number of append buffers a Recorder spreads ranks
// over — a power of two so the shard of a rank is a mask.
const traceShards = 64

// seqEvent is an event plus its position in the recording rank's own event
// stream, the tiebreaker that makes the collection-time merge deterministic.
type seqEvent struct {
	Event
	seq uint64
}

// traceShard buffers the events of the ranks hashing to it.
type traceShard struct {
	mu   sync.Mutex
	next map[int]uint64 // rank -> next per-rank sequence number
	evs  []seqEvent
}

// Recorder collects events from many ranks. It is safe for concurrent use.
// A bounded capacity (0 = unbounded) drops the newest events once full, so
// tracing a huge run cannot exhaust memory.
//
// Events land in per-shard append buffers (ranks spread over shards), so
// thousands of recording rank goroutines no longer serialize on one
// recorder mutex. Collection merges the shards sorted by (Start, Rank,
// per-rank sequence); each rank's events carry their position in that
// rank's own stream, so the merged order is a pure function of what the
// ranks recorded — equal (Start, Rank) ties resolve to program order
// rather than host arrival order.
type Recorder struct {
	cap     int64
	total   atomic.Int64
	dropped atomic.Int64
	shards  [traceShards]traceShard
}

// New creates a recorder holding at most capacity events (0 = unbounded).
func New(capacity int) *Recorder {
	return &Recorder{cap: int64(capacity)}
}

// shard returns the buffer recording the given rank's events.
func (r *Recorder) shard(rank int) *traceShard {
	return &r.shards[uint(rank)%traceShards]
}

// Record appends one event.
func (r *Recorder) Record(ev Event) {
	if r.cap > 0 && r.total.Add(1) > r.cap {
		r.total.Add(-1)
		r.dropped.Add(1)
		return
	}
	if r.cap <= 0 {
		r.total.Add(1)
	}
	s := r.shard(ev.Rank)
	s.mu.Lock()
	if s.next == nil {
		s.next = make(map[int]uint64)
	}
	seq := s.next[ev.Rank]
	s.next[ev.Rank] = seq + 1
	s.evs = append(s.evs, seqEvent{Event: ev, seq: seq})
	s.mu.Unlock()
}

// Len reports the number of retained events.
func (r *Recorder) Len() int {
	return int(r.total.Load())
}

// Dropped reports how many events the capacity bound discarded.
func (r *Recorder) Dropped() int64 {
	return r.dropped.Load()
}

// Events returns a copy of the retained events merged across the shard
// buffers in (Start, Rank, per-rank record order).
func (r *Recorder) Events() []Event {
	merged := make([]seqEvent, 0, r.Len())
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		merged = append(merged, s.evs...)
		s.mu.Unlock()
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Start != merged[j].Start {
			return merged[i].Start < merged[j].Start
		}
		if merged[i].Rank != merged[j].Rank {
			return merged[i].Rank < merged[j].Rank
		}
		return merged[i].seq < merged[j].seq
	})
	out := make([]Event, len(merged))
	for i, e := range merged {
		out[i] = e.Event
	}
	return out
}

// KindStats aggregates one event kind.
type KindStats struct {
	Count int64
	Bytes int64
	Dur   simtime.Duration
}

// Summary aggregates events by kind.
func (r *Recorder) Summary() map[Kind]KindStats {
	out := make(map[Kind]KindStats)
	for _, ev := range r.Events() {
		s := out[ev.Kind]
		s.Count++
		s.Bytes += ev.Bytes
		s.Dur += ev.Dur
		out[ev.Kind] = s
	}
	return out
}

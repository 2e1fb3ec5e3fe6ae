package mpi

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/simtime"
)

// envelope is one in-flight message.
type envelope struct {
	src     int
	tag     int
	seq     uint64 // mailbox-wide deposit order, stamped by deposit
	data    []byte
	arrival simtime.Time // virtual instant the last byte reaches the receiver
}

// fifo is a queue — of unmatched messages for one (source, tag) pair, or of
// a wildcard side-list's entries — held as a slice with a head index and
// compacted whenever it drains, so steady-state traffic reuses one backing
// array instead of reallocating per message.
type fifo[T any] struct {
	head int
	buf  []T
}

func (q *fifo[T]) empty() bool { return q.head == len(q.buf) }
func (q *fifo[T]) front() *T   { return &q.buf[q.head] }

func (q *fifo[T]) push(e T) {
	if q.head > 32 && q.head*2 >= len(q.buf) {
		// Reclaim the consumed prefix so a queue that never fully drains
		// cannot grow its backing array without bound.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, e)
}

func (q *fifo[T]) pop() T {
	e := q.buf[q.head]
	clear(q.buf[q.head : q.head+1]) // drop the payload reference
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return e
}

// srcTag names one (source, tag) pair.
type srcTag struct{ src, tag int }

// wildEntry records one deposit in a wildcard side-list: which queue it
// went to, and its mailbox-wide sequence number. An entry whose seq no
// longer matches its queue's front was consumed through another path and
// is skipped (and discarded) when encountered — lazy deletion.
type wildEntry struct {
	key srcTag
	seq uint64
}

// mailbox holds a rank's unmatched inbound messages, indexed by
// (source, tag). Matching is FIFO per (source, tag), as MPI requires; a
// fully specified receive finds its queue in O(1) instead of scanning every
// buffered message. The one wildcard shape, (AnySource, tag), pops from a
// deposit-ordered side-list per tag whose entries go stale when an exact
// receive consumes the message first; stale entries are discarded lazily at
// the list heads. Both receive shapes are amortized O(1), and the sequence
// stamps keep the drain order exactly what a single flat queue would have
// produced: FIFO per pair, deposit order across pairs.
type mailbox struct {
	mu      sync.Mutex
	waiting bool   // the owner is parked in take, for a message matching want
	want    srcTag // (AnySource, tag) takes any source
	seq     uint64
	keyed   map[srcTag]*fifo[envelope] // reached through queue
	// The side-lists are maintained only once a wildcard receive has been
	// posted (wild): ranks that only ever match exactly pay nothing for
	// them. The first wildcard take rebuilds them from the buffered queues.
	wild  bool
	byTag map[int]*fifo[wildEntry]
}

func newMailbox() *mailbox {
	return &mailbox{keyed: make(map[srcTag]*fifo[envelope])}
}

// queue returns the FIFO of one (source, tag) pair, or nil when create is
// false and the pair has never been deposited to.
func (m *mailbox) queue(key srcTag, create bool) *fifo[envelope] {
	q := m.keyed[key]
	if q == nil && create {
		q = &fifo[envelope]{}
		m.keyed[key] = q
	}
	return q
}

// trimStale discards consumed entries at the list head. The head entry is
// live exactly when its queue's front carries its seq: per-pair FIFO means
// any smaller seq of that pair was deposited earlier, so a front seq that
// moved past the entry's proves the entry's message is gone.
func (m *mailbox) trimStale(l *fifo[wildEntry]) {
	for !l.empty() {
		e := l.front()
		if q := m.queue(e.key, false); q != nil && !q.empty() && q.front().seq == e.seq {
			return
		}
		l.pop()
	}
}

// deposit buffers e and reports whether the caller must unpark the owner.
func (m *mailbox) deposit(e envelope) (wake bool) {
	m.mu.Lock()
	e.seq = m.seq
	m.seq++
	key := srcTag{e.src, e.tag}
	m.queue(key, true).push(e)
	if m.wild {
		m.pushWild(wildEntry{key: key, seq: e.seq})
	}
	if m.waiting && key.tag == m.want.tag && (m.want.src == AnySource || key.src == m.want.src) {
		m.waiting, wake = false, true
	}
	m.mu.Unlock()
	return wake
}

// pushWild records a deposit in its tag's side-list, trimming the list's
// stale head first so an idle list cannot accumulate consumed entries.
func (m *mailbox) pushWild(ent wildEntry) {
	tl := m.byTag[ent.key.tag]
	if tl == nil {
		tl = &fifo[wildEntry]{}
		m.byTag[ent.key.tag] = tl
	}
	m.trimStale(tl)
	tl.push(ent)
}

// activateWild switches the mailbox into wildcard mode, rebuilding the
// side-lists from the currently buffered messages in deposit order. Called
// once, under mu, by the first wildcard take.
func (m *mailbox) activateWild() {
	var ents []wildEntry
	for k, q := range m.keyed {
		for _, e := range q.buf[q.head:] {
			ents = append(ents, wildEntry{key: k, seq: e.seq})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	m.byTag = make(map[int]*fifo[wildEntry])
	m.wild = true
	for _, ent := range ents {
		m.pushWild(ent)
	}
}

// match removes and returns the oldest buffered message matching (src, tag)
// — FIFO per pair, deposit order across pairs for AnySource — or reports
// ok == false. Called under mu.
func (m *mailbox) match(src, tag int) (envelope, bool) {
	if src != AnySource {
		if q := m.queue(srcTag{src, tag}, false); q != nil && !q.empty() {
			return q.pop(), true
		}
		return envelope{}, false
	}
	if !m.wild {
		m.activateWild()
	}
	if l := m.byTag[tag]; l != nil {
		m.trimStale(l)
		if !l.empty() {
			// A live head entry is its queue's front, and every entry in
			// this list matches the filter by construction.
			return m.queue(l.pop().key, false).pop(), true
		}
	}
	return envelope{}, false
}

// take removes and returns the oldest message matching (src, tag), calling
// park, which releases mu (World.park), while none is buffered.
func (m *mailbox) take(src, tag int, park func(*sync.Mutex) error) (envelope, error) {
	m.mu.Lock()
	for {
		if e, ok := m.match(src, tag); ok {
			m.mu.Unlock()
			return e, nil
		}
		m.waiting, m.want = true, srcTag{src, tag}
		if err := park(&m.mu); err != nil {
			return envelope{}, err
		}
		m.mu.Lock()
	}
}

// tryTake is take without blocking: it removes and returns a matching
// message if one is buffered right now, else reports ok == false.
func (m *mailbox) tryTake(src, tag int) (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.match(src, tag)
}

// sendOverhead is the local CPU cost of posting one message.
const sendOverhead = 400 * simtime.Nanosecond

// Send delivers data to rank dst with the given tag. The runtime buffers
// eagerly (the send completes locally once the message is handed to the
// network), matching MPI's buffered-send semantics; the network model
// decides when the bytes arrive at dst.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := userTag("Send", tag); err != nil {
		return err
	}
	return c.sendStaged(dst, tag, c.stage(data), netsim.TwoSided, -1, 0)
}

// stage returns the eager copy of a payload, in a world-pool buffer.
func (c *Comm) stage(data []byte) []byte {
	buf := c.w.pool.get(len(data))
	copy(buf, data)
	return buf
}

// userTag rejects the runtime's tag space at the user-facing entry points:
// negative tags are reserved, and -1 is no wildcard.
func userTag(op string, tag int) error {
	if tag >= 0 {
		return nil
	}
	return fmt.Errorf("mpi: %s with tag %d: negative tags are reserved for the runtime", op, tag)
}

// receive blocks, behind the user-facing entry points, for the oldest
// message matching (src, tag) and advances the clock to its arrival.
func (c *Comm) receive(op string, src, tag int) (envelope, error) {
	if err := c.checkRecv(op, src, tag); err != nil {
		return envelope{}, err
	}
	c.w.touch(c.rank, "recv", c.clock().Now())
	e, err := c.w.ranks[c.rank].box.take(src, tag, func(mu *sync.Mutex) error {
		return c.w.park(c.rank, wait{"recv", src, tag}, mu)
	})
	if err == nil {
		c.clock().AdvanceTo(e.arrival)
	}
	return e, err
}

// checkRecv rejects a receive that could never match or takes a reserved tag.
func (c *Comm) checkRecv(op string, src, tag int) error {
	if src != AnySource && (src < 0 || src >= c.w.nprocs) {
		return fmt.Errorf("mpi: %s from rank %d of %d", op, src, c.w.nprocs)
	}
	return userTag(op, tag)
}

// sendStaged delivers an already-staged payload, taking ownership of buf —
// the zero-copy entry for callers that encode their message directly into a
// pooled staging buffer (the RPC layer). buf must not be touched after the
// call; it reaches the receiver, whose Release or Recycle returns it to the
// pool. simBytes is the billed simulated size, or -1 to bill the scaled
// payload length; billing less than the payload models compact wire
// encodings. The message departs once the sender has paid sendOverhead, or
// at floor if that is later: a floor is when the payload's bytes exist, and
// the sender's clock does not wait for it. Every send but a reply with
// RPCReply.Ready passes 0. An eager send completes locally, so it does not
// look for an abort (see World.park).
func (c *Comm) sendStaged(dst, tag int, buf []byte, class netsim.Class, simBytes int64, floor simtime.Time) error {
	if dst < 0 || dst >= c.w.nprocs {
		c.w.pool.put(buf)
		return fmt.Errorf("mpi: Send to rank %d of %d", dst, c.w.nprocs)
	}
	if simBytes < 0 {
		simBytes = c.w.machine.Scale(int64(len(buf)))
	}
	depart := max(c.clock().Advance(sendOverhead), floor)
	c.w.touch(c.rank, "send", depart) // the network, then dst's mailbox
	arrival := c.w.net.Transfer(
		c.w.machine.NodeOf(c.rank), c.w.machine.NodeOf(dst),
		simBytes, depart, class)
	if c.w.ranks[dst].box.deposit(envelope{src: c.rank, tag: tag, data: buf, arrival: arrival}) {
		c.w.unpark(dst, nil)
	}
	return nil
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload; src may be AnySource. The rank's clock advances to the
// message's arrival instant.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	e, err := c.receive("Recv", src, tag)
	return e.data, err
}

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

// msgQueue is the FIFO of unmatched messages for one (source, tag) pair —
// a slice with a head index, compacted whenever it drains, so steady-state
// traffic reuses one backing array instead of reallocating per message.
type msgQueue struct {
	head int
	envs []envelope
}

func (q *msgQueue) empty() bool      { return q.head == len(q.envs) }
func (q *msgQueue) front() *envelope { return &q.envs[q.head] }

func (q *msgQueue) push(e envelope) {
	if q.head > 32 && q.head*2 >= len(q.envs) {
		// Reclaim the consumed prefix so a queue that never fully drains
		// cannot grow its backing array without bound.
		n := copy(q.envs, q.envs[q.head:])
		for i := n; i < len(q.envs); i++ {
			q.envs[i] = envelope{}
		}
		q.envs = q.envs[:n]
		q.head = 0
	}
	q.envs = append(q.envs, e)
}

func (q *msgQueue) pop() envelope {
	e := q.envs[q.head]
	q.envs[q.head] = envelope{} // drop the payload reference
	q.head++
	if q.head == len(q.envs) {
		q.head = 0
		q.envs = q.envs[:0]
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

// keyList is a FIFO of wildEntry with the same head-index compaction as
// msgQueue.
type keyList struct {
	head int
	ents []wildEntry
}

func (l *keyList) empty() bool      { return l.head == len(l.ents) }
func (l *keyList) front() wildEntry { return l.ents[l.head] }

func (l *keyList) push(e wildEntry) {
	if l.head > 32 && l.head*2 >= len(l.ents) {
		n := copy(l.ents, l.ents[l.head:])
		l.ents = l.ents[:n]
		l.head = 0
	}
	l.ents = append(l.ents, e)
}

func (l *keyList) pop() {
	l.head++
	if l.head == len(l.ents) {
		l.head = 0
		l.ents = l.ents[:0]
	}
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
	mu    sync.Mutex
	cond  *sync.Cond
	seq   uint64
	keyed map[srcTag]*msgQueue // reached through queue
	// The side-lists are maintained only once a wildcard receive has been
	// posted (wild): ranks that only ever match exactly pay nothing for
	// them. The first wildcard take rebuilds them from the buffered queues.
	wild  bool
	byTag map[int]*keyList
}

func newMailbox() *mailbox {
	m := &mailbox{keyed: make(map[srcTag]*msgQueue)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// queue returns the FIFO of one (source, tag) pair, or nil when create is
// false and the pair has never been deposited to.
func (m *mailbox) queue(key srcTag, create bool) *msgQueue {
	q := m.keyed[key]
	if q == nil && create {
		q = &msgQueue{}
		m.keyed[key] = q
	}
	return q
}

// trimStale discards consumed entries at the list head. The head entry is
// live exactly when its queue's front carries its seq: per-pair FIFO means
// any smaller seq of that pair was deposited earlier, so a front seq that
// moved past the entry's proves the entry's message is gone.
func (m *mailbox) trimStale(l *keyList) {
	for !l.empty() {
		e := l.front()
		if q := m.queue(e.key, false); q != nil && !q.empty() && q.front().seq == e.seq {
			return
		}
		l.pop()
	}
}

func (m *mailbox) deposit(e envelope) {
	m.mu.Lock()
	e.seq = m.seq
	m.seq++
	key := srcTag{e.src, e.tag}
	m.queue(key, true).push(e)
	if m.wild {
		m.pushWild(wildEntry{key: key, seq: e.seq})
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

// pushWild records a deposit in its tag's side-list, trimming the list's
// stale head first so an idle list cannot accumulate consumed entries.
func (m *mailbox) pushWild(ent wildEntry) {
	tl := m.byTag[ent.key.tag]
	if tl == nil {
		tl = &keyList{}
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
		for _, e := range q.envs[q.head:] {
			ents = append(ents, wildEntry{key: k, seq: e.seq})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
	m.byTag = make(map[int]*keyList)
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
			e := l.front()
			l.pop()
			return m.queue(e.key, false).pop(), true
		}
	}
	return envelope{}, false
}

// take blocks until a message matching (src, tag) is available, removing
// and returning it. It returns an error when the world aborts while waiting.
func (m *mailbox) take(src, tag int, abortedErr func() error) (envelope, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if e, ok := m.match(src, tag); ok {
			return e, nil
		}
		if err := abortedErr(); err != nil {
			return envelope{}, err
		}
		m.cond.Wait()
	}
}

// tryTake is take without blocking: it removes and returns a matching
// message if one is buffered right now, else reports ok == false.
func (m *mailbox) tryTake(src, tag int) (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.match(src, tag)
}

// wake unblocks all waiters so they can observe an abort. Holding mu keeps
// the broadcast from slipping between a waiter's abort check and its Wait.
func (m *mailbox) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
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

// receive blocks for the oldest message matching (src, tag) and advances the
// clock to its arrival.
func (c *Comm) receive(src, tag int) (envelope, error) {
	c.w.touch(c.rank, "recv", c.clock().Now())
	e, err := c.w.ranks[c.rank].box.take(src, tag, c.abortedErr)
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

// receiveUser is receive behind the user-facing entry points.
func (c *Comm) receiveUser(op string, src, tag int) (envelope, error) {
	if err := c.checkRecv(op, src, tag); err != nil {
		return envelope{}, err
	}
	return c.receive(src, tag)
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
// look for an abort (see abortedErr).
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
	c.w.ranks[dst].box.deposit(envelope{src: c.rank, tag: tag, data: buf, arrival: arrival})
	return nil
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload; src may be AnySource. The rank's clock advances to the
// message's arrival instant.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	e, err := c.receiveUser("Recv", src, tag)
	return e.data, err
}

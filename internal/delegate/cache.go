package delegate

// The server-side hot-block cache: an LRU of whole domain-block buffers,
// keyed by (file name, block), shared across every handle a server holds.
// A hit serves a repeat or cross-client read from server memory; a miss
// fills the block's whole line through the file system (server.fillLine)
// and caches every block of it, each with the instant its bytes arrive.
// Coherence
// is the server's job, not the cache's: blocks with staged-but-undrained
// writes are bypassed (the dirty counters in server.go), and closeEpoch
// writes drained runs through into live entries, so a read after a flush
// epoch never sees stale bytes.
//
// Buffers are drawn from the mpi size-classed pools; put and invalidate
// return the evicted buffer instead of recycling it, because the caller
// may still be serving replies out of it — the caller recycles once no
// reference remains.

import (
	"container/list"

	"github.com/tcio/tcio/internal/simtime"
)

// blockKey names one domain block of one file.
type blockKey struct {
	name string
	blk  int64
}

// cacheEntry is one resident block. ready is the instant its fill completes:
// the bytes exist on the host as soon as the fill is posted, but a reply
// that carries them departs no earlier than ready (RPCReply.Ready). The
// server's clock never waits for it.
type cacheEntry struct {
	key   blockKey
	buf   []byte
	ready simtime.Time
}

// blockCache is an LRU over domain-block buffers. Zero capacity means
// disabled; callers guard on that and never construct one.
type blockCache struct {
	cap     int
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[blockKey]*list.Element
}

func newBlockCache(capacity int) *blockCache {
	return &blockCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[blockKey]*list.Element),
	}
}

// get returns the entry cached for key and promotes it to most recently
// used.
func (c *blockCache) get(key blockKey) (*cacheEntry, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// peek returns the cached buffer without touching recency — the
// write-through path updates bytes but must not let writes distort the
// read-driven LRU order.
func (c *blockCache) peek(key blockKey) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).buf, true
}

// put inserts buf, whose bytes arrive at ready, for key — which must not be
// resident: both callers admit only blocks they just found absent — as most
// recently used, and returns the LRU victim's buffer when the cache is over
// capacity (nil otherwise) for the caller to recycle once it holds no other
// reference.
func (c *blockCache) put(key blockKey, buf []byte, ready simtime.Time) (evicted []byte) {
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, buf: buf, ready: ready})
	if c.order.Len() <= c.cap {
		return nil
	}
	victim := c.order.Back()
	ent := victim.Value.(*cacheEntry)
	c.order.Remove(victim)
	delete(c.entries, ent.key)
	return ent.buf
}

// invalidate removes key, returning its buffer for the caller to recycle.
func (c *blockCache) invalidate(key blockKey) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	ent := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries, ent.key)
	return ent.buf, true
}

package delegate

// The server side of the tier. A server rank never runs application code:
// it sits in one request loop staging client writes into per-handle,
// per-domain-block buffers, and drains one coalesced batch per flush
// epoch. Arrival order at the loop races with goroutine scheduling, so
// nothing order-dependent happens at receive time — records are staged
// with their (client, seq) identity and every epoch is applied in sorted
// order, making the drained batch and the file image deterministic.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// ServerStats is one server rank's final counters.
type ServerStats struct {
	// Rank is the server's rank in the communicator.
	Rank int
	// Requests counts protocol requests served (shutdowns excluded).
	Requests int64
	// StagedWrites and StagedBytes count write records admitted.
	StagedWrites int64
	StagedBytes  int64
	// Epochs counts flush epochs closed.
	Epochs int64
	// BatchedRuns counts the coalesced extent runs drained — each is one
	// file system write request, so comparing it against StagedWrites
	// measures the tier's aggregation factor.
	BatchedRuns int64
	// FSWrites/FSReads/FSBytes are the storage-layer request and byte
	// counts the drains and reads produced; Retries the transient faults
	// absorbed under chaos.
	FSWrites int64
	FSReads  int64
	FSBytes  int64
	Retries  int64
	// ReadReqs counts OpRead requests served (inline or via the DRR
	// scheduler); ReadEpochs collective read epochs closed, and
	// CollectiveBlocks the merged domain blocks those epochs staged.
	ReadReqs         int64
	ReadEpochs       int64
	CollectiveBlocks int64
	// CacheHits/CacheMisses/CacheEvictions count hot-block cache
	// outcomes: every served read request and every collective block is
	// exactly one hit or miss while the cache is armed, and all three
	// stay zero while it is disarmed.
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
}

// Collector gathers ServerStats across server ranks (they finish as
// separate goroutines, so the sink is mutex-guarded).
type Collector struct {
	mu      sync.Mutex
	servers []ServerStats
}

func (col *Collector) add(s ServerStats) {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.servers = append(col.servers, s)
}

// Servers returns the collected stats sorted by rank.
func (col *Collector) Servers() []ServerStats {
	col.mu.Lock()
	defer col.mu.Unlock()
	out := append([]ServerStats(nil), col.servers...)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// handleFile is a server's state for one open handle.
type handleFile struct {
	name string
	mode tcio.Mode
	refs int // clients currently holding the handle open
	pf   *pfs.File
	// stores holds one storage client per rank h's reads go out as (see
	// store); drain is the server's own, which drains, cache fills and the
	// read epochs' union fetch use.
	stores map[int]*storage.Client
	drain  *storage.Client
	// staged holds the epoch's write requests, unreleased: epochs apply in
	// (block, client, seq) order, so no record is copied out before closeEpoch.
	staged []mpi.RPCRequest
	epoch  int64
	// quorum holds this epoch's contributions by client rank — a flush
	// marker each on a write handle, a read intent each on a read handle; the
	// epoch closes when every client has contributed (contribute).
	quorum map[int]contribution
}

// contribution is one client's part of an epoch: the request's sequence
// number and, for a read intent, the runs it asked for or — for a malformed
// request — the error its reply will carry in place of data.
type contribution struct {
	runs []extent.Extent
	seq  int64
	err  error
}

type server struct {
	c       *mpi.Comm
	cfg     Config
	retry   faults.RetryPolicy
	clients int           // client-rank count: every epoch's quorum
	index   int           // this rank's position among the server ranks
	domains extent.Layout // the owner map; this server owns the blocks Owner deals to index
	handles map[int32]*handleFile
	stats   ServerStats
	// cache is the hot-block cache (nil when ServerCacheBlocks == 0) and
	// dirty counts staged-but-undrained writes per (file, block): a block
	// with dirty records bypasses the cache entirely, so a read between a
	// write and its flush epoch never sees bytes the drain hasn't applied.
	cache *blockCache
	dirty map[blockKey]int
	// sched queues reads for deficit-round-robin draining (nil when
	// ReadQuantum == 0, which serves reads inline in arrival order).
	sched *drrSched
}

// newServer builds the server state of rank c among serverRanks.
func newServer(c *mpi.Comm, cfg Config, serverRanks []int, domains extent.Layout) *server {
	srv := &server{
		c:       c,
		cfg:     cfg,
		retry:   faults.DefaultRetryPolicy(),
		index:   slices.Index(serverRanks, c.Rank()),
		domains: domains,
		handles: make(map[int32]*handleFile),
	}
	if cfg.TCIO.Retry != nil {
		srv.retry = *cfg.TCIO.Retry
	}
	srv.clients = c.Size() - len(serverRanks)
	if cfg.ServerCacheBlocks > 0 {
		srv.cache = newBlockCache(cfg.ServerCacheBlocks)
		srv.dirty = make(map[blockKey]int)
	}
	if cfg.ReadQuantum > 0 {
		srv.sched = newDRR(cfg.ReadQuantum)
	}
	return srv
}

// serve runs the delegation request loop on a server rank until every
// client has shut down, then deposits the rank's counters in Collect.
func serve(c *mpi.Comm, cfg Config, serverRanks []int, domains extent.Layout) error {
	srv := newServer(c, cfg, serverRanks, domains)
	err := srv.loop()
	if cfg.Collect != nil {
		srv.stats.Rank = c.Rank()
		cfg.Collect.add(srv.stats)
	}
	return err
}

// handle owns req. A write keeps its staging buffer until the epoch
// closes; every other request is consumed here and released.
func (s *server) handle(req mpi.RPCRequest) error {
	if req.Op == mpi.OpWrite {
		return s.write(req)
	}
	defer req.Release()
	switch req.Op {
	case mpi.OpOpen:
		return s.open(&req)
	case mpi.OpRead:
		return s.read(&req)
	case mpi.OpFlush, mpi.OpReadIntent:
		// A flush marker closes a write epoch and a read intent a read epoch;
		// no File method sends either on the other kind of handle.
		if h := s.handles[req.Handle]; h != nil && (req.Op == mpi.OpFlush) != (h.mode == tcio.WriteMode) {
			return fmt.Errorf("delegate: %s on %s handle %d", req.Op, h.mode, req.Handle)
		}
		if req.Op == mpi.OpFlush {
			return s.flush(&req)
		}
		return s.readIntent(&req)
	case mpi.OpClose:
		return s.close(&req)
	}
	return fmt.Errorf("delegate: unexpected %s", req.Op)
}

// loop serves requests until every client has shut down: each request
// charges serverPerReq of service time before it is handled, and an
// OpShutdown retires its sender. With ReadQuantum == 0 a read is handled
// inline like any other request; otherwise a read that passes its checks
// on arrival is queued into the DRR scheduler, which next drains between
// arrivals, and any other read is answered at once (with its error).
func (s *server) loop() error {
	for remaining := s.clients; remaining > 0; {
		req, err := s.next()
		if err != nil {
			return err
		}
		s.c.AdvanceTo(s.c.Now().Add(serverPerReq))
		if req.Op == mpi.OpShutdown {
			req.Release()
			remaining--
			continue
		}
		s.stats.Requests++
		if req.Op == mpi.OpRead && s.sched != nil && s.queueable(&req) {
			s.sched.push(req.Client, req)
		} else if err := s.handle(req); err != nil {
			return serveErr(req.Op, req.Client, err)
		}
	}
	return nil
}

// next returns the next request. While reads are queued it only polls, and
// serves them one deficit round at a time whenever no new request is
// waiting — that is, between writes. A blocking receive happens only with an
// empty read queue, so queued reads cannot be stranded behind it; and a
// client always collects its read replies before it can send OpShutdown, so
// loop exit implies an empty scheduler.
func (s *server) next() (mpi.RPCRequest, error) {
	for s.sched != nil && s.sched.pending() > 0 {
		req, ok, err := s.c.TryRecvRequest(mpi.AnySource, tagRequest)
		if ok || err != nil {
			return req, err
		}
		for _, rq := range s.sched.round() {
			if err := s.handle(rq); err != nil {
				return rq, serveErr(rq.Op, rq.Client, err)
			}
		}
	}
	return s.c.RecvRequest(mpi.AnySource, tagRequest)
}

// queueable reports whether a read may wait in the DRR queue: its handle is
// open and its run lies in one block this server owns, so no queued read is
// longer than a block and every round can serve it.
func (s *server) queueable(req *mpi.RPCRequest) bool {
	_, err := s.owned("read", extent.Extent{Off: req.Off, Len: req.Len})
	return err == nil && s.handles[req.Handle] != nil
}

// serveErr names the request a failed handler was serving.
func serveErr(op mpi.RPCOp, client int, err error) error {
	return fmt.Errorf("delegate: serve tag %d: %s from rank %d: %w", tagRequest, op, client, err)
}

func (s *server) open(req *mpi.RPCRequest) error {
	name, mode := string(req.Data), tcio.Mode(req.Off)
	h := s.handles[req.Handle]
	if h == nil {
		h = &handleFile{
			name:   name,
			mode:   mode,
			pf:     s.c.FS().Open(name),
			stores: make(map[int]*storage.Client),
			quorum: make(map[int]contribution),
		}
		h.drain = s.store(h, s.c.Rank())
		s.handles[req.Handle] = h
	}
	if h.name != name || h.mode != mode {
		return fmt.Errorf("delegate: handle %d reopened as %q/%v, was %q/%v",
			req.Handle, name, mode, h.name, h.mode)
	}
	h.refs++
	return nil
}

func (s *server) lookup(req *mpi.RPCRequest) (*handleFile, error) {
	h := s.handles[req.Handle]
	if h == nil {
		return nil, fmt.Errorf("delegate: %s on unknown handle %d from rank %d",
			req.Op, req.Handle, req.Client)
	}
	return h, nil
}

func (s *server) write(req mpi.RPCRequest) error {
	h, err := s.lookup(&req)
	var blk int64
	if err == nil {
		blk, err = s.owned("write", extent.Extent{Off: req.Off, Len: int64(len(req.Data))})
	}
	if err != nil {
		req.Release()
		return err
	}
	h.staged = append(h.staged, req)
	s.stats.StagedWrites++
	s.stats.StagedBytes += int64(len(req.Data))
	if s.cache != nil {
		// The block now has a staged-but-undrained write: reads must
		// bypass the cache for it until the flush epoch drains (and
		// writes through) — see closeEpoch.
		s.dirty[blockKey{name: h.name, blk: blk}]++
	}
	// Grant the admission credit back now that the record is staged.
	return s.c.Send(req.Client, tagCredit, []byte{1})
}

// store returns (creating on first use) h's storage client whose reads
// identify as rank. The bypass reads (cache disarmed, or a dirty block) use
// the requesting client's, so they keep the undelegated request identity:
// the parallel file system's readahead window and the fault injector's
// identity keys see the per-client streams they would without delegation.
// Nothing that enters the cache goes through a client's: which client's
// request arrives first is the host's doing.
func (s *server) store(h *handleFile, rank int) *storage.Client {
	st := h.stores[rank]
	if st == nil {
		st = storage.NewClient(h.pf, s.c.Node(), rank, s.c)
		st.SetRetryPolicy(s.retry)
		st.SetTrace(s.cfg.TCIO.Trace)
		h.stores[rank] = st
	}
	return st
}

// errCode classifies a storage-layer error for the reply's wire code, so
// the client can surface a typed error instead of a flattened string.
func errCode(err error) mpi.RPCErrCode {
	if errors.Is(err, faults.ErrExhaustedRetries) {
		return mpi.RPCErrExhausted
	}
	return mpi.RPCErrGeneric
}

// serveHit counts a cache hit serving bytes of ent and traces it when those
// bytes can leave: at the block's arrival while it is still in flight, at the
// server's present once it has landed. The server's clock never waits for
// the block; the reply carrying it does (RPCReply.Ready).
func (s *server) serveHit(ent *cacheEntry, bytes int64) {
	s.stats.CacheHits++
	if s.cfg.TCIO.Trace != nil {
		s.cfg.TCIO.Trace.Record(trace.Event{
			Rank: s.c.Rank(), Start: max(s.c.Now(), ent.ready), Kind: trace.KindCacheServe,
			Bytes: bytes, Detail: fmt.Sprintf("blk=%d", ent.key.blk),
		})
	}
}

// lineBlocks is the fill line: a cache miss fetches the missed block's
// aligned group of this many of the server's own domain blocks. A constant
// beside the domain block's four segments, not a knob (DESIGN.md §2e).
const lineBlocks = 4

// owned checks a run off the wire — a write record, a read, an intent's run —
// before the server indexes with it: non-empty, non-negative, not overflowing,
// and inside one domain block this server owns. It returns the block.
func (s *server) owned(kind string, r extent.Extent) (int64, error) {
	if r.Off < 0 || r.Len <= 0 || r.Len > math.MaxInt64-r.Off {
		return 0, fmt.Errorf("delegate: %s run [%d,+%d) is empty, negative or overflows", kind, r.Off, r.Len)
	}
	blk := s.domains.Segment(r.Off)
	owner, end := s.domains.Clip(r.Off, r.End())
	if end != r.End() {
		return 0, fmt.Errorf("delegate: %s run [%d,+%d) crosses a %d-byte domain block", kind, r.Off, r.Len, s.domains.SegSize)
	}
	if owner != s.index {
		return 0, fmt.Errorf("delegate: %s run [%d,+%d) lies in block %d, which server %d of %d does not own",
			kind, r.Off, r.Len, blk, s.index, s.domains.P)
	}
	return blk, nil
}

// read serves one OpRead, which must lie within one block of this server's
// (else the sender gets an error reply). With the cache armed, a clean block
// is served from its entry — a miss first posts the block's fill line; a
// dirty block (staged-but-undrained writes) bypasses the cache with a
// per-request read posted at the server's present, exactly the disarmed
// tier's shape. Either way the reply departs when its bytes exist, the
// entry's ready or the read's completion, and the server goes on serving.
func (s *server) read(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	s.stats.ReadReqs++
	blk, err := s.owned("read", extent.Extent{Off: req.Off, Len: req.Len})
	key := blockKey{name: h.name, blk: blk}
	rep := &mpi.RPCReply{Seq: req.Seq}
	switch {
	case err != nil:
		// Malformed: nothing to serve; the reply carries the error.
	case s.cache != nil && s.dirty[key] == 0:
		ent, hit := s.cache.get(key)
		if hit {
			s.serveHit(ent, req.Len)
		} else {
			s.stats.CacheMisses++
			ent, err = s.fillLine(h, key)
		}
		if err == nil {
			// SendReply copies synchronously into its wire staging, so
			// serving a slice of the live entry is safe and zero-copy.
			rel := req.Off - s.domains.SegStart(blk)
			rep.OK, rep.Data, rep.Ready = true, ent.buf[rel:rel+req.Len], ent.ready
		}
	default:
		if s.cache != nil {
			// Dirty block: served, but never from or into the cache.
			s.stats.CacheMisses++
		}
		buf := s.c.GetBuf(int(req.Len))
		defer s.c.Recycle(buf)
		var res storage.Result
		res, rep.Ready, err = s.store(h, req.Client).ReadExtentsFrom("delegate-read", trace.KindFetch, []storage.Request{
			{Off: req.Off, Data: buf, Tag: fmt.Sprintf("c%d", req.Client)},
		}, s.c.Now())
		s.count(res, &s.stats.FSReads)
		rep.OK, rep.Data = err == nil, buf
	}
	if err != nil {
		rep.Code, rep.Err, rep.Data = errCode(err), err.Error(), nil
	}
	return s.c.SendReply(req.Client, tagReply, rep)
}

// fillLine serves a miss on key critical block first: key's block, then the
// other clean, non-resident, in-file blocks of its line, as many as the
// cache holds, are fetched as one batch. Each block is cached with its own
// completion, and the server waits for none of them: the caller's reply
// departs at key's. A request that exhausts its retries fails itself (and
// leaves the rest of the line unissued); the error is the caller's only
// when it is key's.
func (s *server) fillLine(h *handleFile, key blockKey) (*cacheEntry, error) {
	n := int64(s.domains.P)
	blks := []int64{key.blk}
	// Walked from the missed block, n at a time: all owned by key's owner.
	_, slot := s.domains.Owner(key.blk)
	first := key.blk - slot%lineBlocks*n
	for blk := first; blk < first+lineBlocks*n && len(blks) < min(lineBlocks, s.cache.cap); blk += n {
		k := blockKey{name: h.name, blk: blk}
		if _, resident := s.cache.peek(k); blk != key.blk && !resident && s.dirty[k] == 0 && s.domains.SegStart(blk) < h.pf.Size() {
			blks = append(blks, blk)
		}
	}
	bufs, done, filled, err := s.fetch(h, "delegate-fill", blks)
	for i, blk := range blks {
		if i < filled {
			s.admit(blockKey{name: h.name, blk: blk}, bufs[i], done[i])
		} else {
			s.c.Recycle(bufs[i])
		}
	}
	if filled == 0 {
		return nil, err
	}
	ent, _ := s.cache.get(key)
	return ent, nil
}

// fetch posts whole domain blocks blks as one batch departing at the
// server's present, on the server's own storage client: the fetch is the
// server's doing, so the set fetched and every fault-roll key are a function
// of the blocks, not of whose request arrived first. It leaves the clock
// alone and returns each block's buffer and completion, and how many blocks
// were read — issue stops at the first request that exhausts its retries.
func (s *server) fetch(h *handleFile, op string, blks []int64) (bufs [][]byte, done []simtime.Time, filled int, err error) {
	bufs, done = make([][]byte, len(blks)), make([]simtime.Time, len(blks))
	reqs := make([]storage.Request, len(blks))
	for i, blk := range blks {
		bufs[i] = s.c.GetBuf(int(s.domains.SegSize))
		reqs[i] = storage.Request{Off: s.domains.SegStart(blk), Data: bufs[i], Tag: fmt.Sprintf("blk=%d", blk)}
	}
	if s.cache != nil && mutate.Enabled(mutate.DelegateCacheStaleServe) {
		// Planted bug: "fetch" the blocks without reading the file system,
		// so the replies and every later hit serve zeros.
		for _, b := range bufs {
			clear(b)
		}
		return bufs, done, len(blks), nil
	}
	res, err := h.drain.ReadExtentsEach(op, trace.KindFetch, reqs, s.c.Now(), done)
	s.count(res, &s.stats.FSReads)
	return bufs, done, int(res.Requests), err
}

// admit caches buf, whose bytes arrive at ready, as key's block and retires
// the block that evicts.
func (s *server) admit(key blockKey, buf []byte, ready simtime.Time) {
	if victim := s.cache.put(key, buf, ready); victim != nil {
		s.c.Recycle(victim)
		s.stats.CacheEvictions++
	}
}

// count folds one storage batch into the server's counters, its requests
// into reqs (FSReads or FSWrites).
func (s *server) count(res storage.Result, reqs *int64) {
	*reqs += res.Requests
	s.stats.FSBytes += res.Bytes
	s.stats.Retries += res.Retries
}

// flush counts one client's flush marker toward its handle's write epoch.
func (s *server) flush(req *mpi.RPCRequest) error {
	return s.contribute(req, contribution{seq: req.Seq}, s.closeEpoch)
}

// contribute records one client's part of its handle's epoch and closes the
// epoch with closeFn once every client has contributed. The quorum is the
// static client count, not the opens seen so far: a fast client's open,
// writes, and marker can all arrive before a slow client has even opened
// the file, and closing on a partial quorum would drain an epoch missing the
// slow clients' writes. Open is collective over the clients, so every client
// contributes exactly once per epoch, and FIFO per client orders a
// contribution after the client's earlier requests.
func (s *server) contribute(req *mpi.RPCRequest, c contribution, closeFn func(*handleFile) error) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	if _, dup := h.quorum[req.Client]; dup {
		return fmt.Errorf("delegate: double %s of handle %d from rank %d", req.Op, req.Handle, req.Client)
	}
	h.quorum[req.Client] = c
	if len(h.quorum) < s.clients {
		return nil
	}
	return closeFn(h)
}

// answer sends each contributor of h's epoch its reply in ascending rank
// order, then clears the quorum for the next epoch.
func (s *server) answer(h *handleFile, reply func(client int, c contribution) error) error {
	for cl := range s.c.Size() {
		if c, ok := h.quorum[cl]; ok {
			if err := reply(cl, c); err != nil {
				return err
			}
		}
	}
	clear(h.quorum)
	return nil
}

// blockStage is one domain block's staging buffer during an epoch close.
type blockStage struct {
	blk  int64
	buf  []byte
	runs []extent.Extent // block-relative dirty runs, coalesced
}

// closeEpoch applies the epoch's staged writes block by block, each block's
// records in (client, seq) order — last write wins, deterministically —
// coalesces them, drains one batch, and acks every client in rank order.
// Drained runs write through into live cache entries (and clear the
// blocks' dirty counters), so post-flush reads hit coherent bytes.
func (s *server) closeEpoch(h *handleFile) error {
	if s.cache != nil {
		// Every staged record retires with this epoch; a block goes clean
		// again once its last staged write drains.
		for i := range h.staged {
			key := blockKey{name: h.name, blk: s.domains.Segment(h.staged[i].Off)}
			if n := s.dirty[key]; n <= 1 {
				delete(s.dirty, key)
			} else {
				s.dirty[key] = n - 1
			}
		}
	}
	bySeq := func(a, b mpi.RPCRequest) int {
		return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.Seq, b.Seq))
	}
	if mutate.Enabled(mutate.DelegateDropQueuedFlush) && len(h.staged) > 0 {
		// Planted bug: the epoch loses its last record in (client, seq) order.
		last := 0
		for i := range h.staged {
			if bySeq(h.staged[i], h.staged[last]) > 0 {
				last = i
			}
		}
		h.staged = slices.Delete(h.staged, last, last+1)
	}
	// One sort groups the records by block, each block's in apply order.
	slices.SortFunc(h.staged, func(a, b mpi.RPCRequest) int {
		return cmp.Or(cmp.Compare(s.domains.Segment(a.Off), s.domains.Segment(b.Off)), bySeq(a, b))
	})
	var stages []blockStage
	var reqs []storage.Request
	for i := 0; i < len(h.staged); {
		blk := s.domains.Segment(h.staged[i].Off)
		base := s.domains.SegStart(blk)
		// Pooled staging memory, outside the simulated-memory accountant:
		// server staging must not perturb the per-rank allocation fault
		// stream (the same rule tcio's session staging follows). The pool
		// hands back stale bytes, which is safe here: the
		// coalesced runs cover exactly the staged writes' bytes, and only
		// run-covered slices are ever drained or written through.
		st := blockStage{blk: blk, buf: s.c.GetBuf(int(s.domains.SegSize))}
		for ; i < len(h.staged) && s.domains.Segment(h.staged[i].Off) == blk; i++ {
			rec := &h.staged[i]
			copy(st.buf[rec.Off-base:], rec.Data)
			st.runs = extent.Coalesce(append(st.runs, extent.Extent{Off: rec.Off - base, Len: int64(len(rec.Data))}))
			rec.Release()
		}
		for _, run := range st.runs {
			reqs = append(reqs, storage.Request{
				Off:  base + run.Off,
				Data: st.buf[run.Off:run.End()],
				Tag:  fmt.Sprintf("blk=%d", blk),
			})
		}
		stages = append(stages, st)
	}
	var drainErr error
	if len(reqs) > 0 {
		res, err := h.drain.WriteExtents("delegate-drain", trace.KindDrain, reqs)
		drainErr = err
		s.stats.BatchedRuns += int64(len(reqs))
		s.count(res, &s.stats.FSWrites)
	}
	// Write the drained runs through into live cache entries so they stay
	// coherent (a failed drain invalidates instead — the entry's bytes can
	// no longer be trusted to match the file), then retire the pooled
	// staging buffers.
	for _, st := range stages {
		if s.cache != nil {
			key := blockKey{name: h.name, blk: st.blk}
			if drainErr == nil {
				if cbuf, ok := s.cache.peek(key); ok {
					for _, run := range st.runs {
						copy(cbuf[run.Off:run.End()], st.buf[run.Off:run.End()])
					}
				}
			} else if cbuf, ok := s.cache.invalidate(key); ok {
				s.c.Recycle(cbuf)
			}
		}
		s.c.Recycle(st.buf)
	}
	s.stats.Epochs++
	h.epoch++
	h.staged = nil
	return s.answer(h, func(cl int, _ contribution) error {
		rep := &mpi.RPCReply{OK: drainErr == nil, Seq: h.epoch}
		if drainErr != nil {
			rep.Code, rep.Err = errCode(drainErr), drainErr.Error()
		}
		return s.c.SendReply(cl, tagReply, rep)
	})
}

func (s *server) close(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	h.refs--
	if h.refs > 0 {
		return nil
	}
	if len(h.staged) > 0 {
		return fmt.Errorf("delegate: handle %d closed with %d staged writes",
			req.Handle, len(h.staged))
	}
	delete(s.handles, req.Handle)
	return nil
}

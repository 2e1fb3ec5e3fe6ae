package delegate

// The server side of the tier. A server rank never runs application code:
// it sits in one request loop staging client writes into per-handle,
// per-domain-block buffers, and drains one coalesced batch per flush
// epoch. Arrival order at the loop races with goroutine scheduling, so
// nothing order-dependent happens at receive time — records are staged
// with their (client, seq) identity and every epoch is applied in sorted
// order, making the drained batch and the file image deterministic.
//
// Reads go through the server's block store: the domain blocks it has read,
// kept until it exits. A hit serves a repeat or cross-client read from
// server memory; a miss fills the block's whole line through the file
// system (fillLine) and keeps every block of it, each with the instant its
// bytes arrive. A resident block changes only through a fill or through a
// successful drain's write-through, so it always holds the file's bytes: a
// read between a staged write and its drain sees the pre-flush file, and a
// read after the drain sees the drained bytes.

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
	// StagedWrites counts write records admitted.
	StagedWrites int64
	// Epochs counts flush epochs closed.
	Epochs int64
	// BatchedRuns counts the coalesced extent runs drained — each is one
	// file system write request, so comparing it against StagedWrites
	// measures the tier's aggregation factor.
	BatchedRuns int64
	// FSWrites/FSReads are the storage-layer request counts the drains and
	// reads produced; Retries the transient faults absorbed under chaos.
	FSWrites int64
	FSReads  int64
	Retries  int64
	// ReadReqs counts OpRead requests served.
	ReadReqs int64
	// ReadEpochs is always 0: delegated reads have no collective epoch.
	// The benchmark's per-layer report still reads it.
	ReadEpochs int64
	// CacheHits/CacheMisses count block-store outcomes: every served read
	// request is exactly one hit or one miss.
	CacheHits   int64
	CacheMisses int64
	// CacheEvictions is always 0: the block store never evicts. The
	// benchmark's per-layer report still reads it.
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
	// drain is the server's own storage client: drains and line fills.
	drain *storage.Client
	// staged holds the epoch's write requests, unreleased: epochs apply in
	// (block, client, seq) order, so no record is copied out before closeEpoch.
	staged []mpi.RPCRequest
	epoch  int64
	// flushed holds the client ranks whose flush marker this epoch has; the
	// epoch closes when every client has sent one (flush).
	flushed map[int]bool
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
	blocks  map[blockKey]*cacheEntry // the block store; nothing evicts
}

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
	buf   []byte
	ready simtime.Time
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
		blocks:  make(map[blockKey]*cacheEntry),
	}
	if cfg.TCIO.Retry != nil {
		srv.retry = *cfg.TCIO.Retry
	}
	srv.clients = c.Size() - len(serverRanks)
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
	case mpi.OpFlush:
		// A flush marker closes a write epoch; no File method sends one on a
		// read handle.
		if h := s.handles[req.Handle]; h != nil && h.mode != tcio.WriteMode {
			return fmt.Errorf("delegate: %s on %s handle %d", req.Op, h.mode, req.Handle)
		}
		return s.flush(&req)
	case mpi.OpClose:
		return s.close(&req)
	}
	return fmt.Errorf("delegate: unexpected %s", req.Op)
}

// loop serves requests, reads included, in the order they arrive until
// every client has shut down: each request charges serverPerReq of service
// time before it is handled, and an OpShutdown retires its sender.
func (s *server) loop() error {
	for remaining := s.clients; remaining > 0; {
		req, err := s.c.RecvRequest(mpi.AnySource, tagRequest)
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
		if err := s.handle(req); err != nil {
			return fmt.Errorf("delegate: serve tag %d: %s from rank %d: %w", tagRequest, req.Op, req.Client, err)
		}
	}
	return nil
}

func (s *server) open(req *mpi.RPCRequest) error {
	name, mode := string(req.Data), tcio.Mode(req.Off)
	h := s.handles[req.Handle]
	if h == nil {
		h = &handleFile{
			name:    name,
			mode:    mode,
			pf:      s.c.FS().Open(name),
			flushed: make(map[int]bool),
		}
		h.drain = storage.NewClient(h.pf, s.c.Node(), s.c.Rank(), s.c)
		h.drain.SetRetryPolicy(s.retry)
		h.drain.SetTrace(s.cfg.TCIO.Trace)
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
	if err == nil {
		_, err = s.owned("write", extent.Extent{Off: req.Off, Len: int64(len(req.Data))})
	}
	if err != nil {
		req.Release()
		return err
	}
	h.staged = append(h.staged, req)
	s.stats.StagedWrites++
	// Grant the admission credit back now that the record is staged.
	return s.c.Send(req.Client, tagCredit, []byte{1})
}

// errCode classifies a storage-layer error for the reply's wire code, so
// the client can surface a typed error instead of a flattened string.
func errCode(err error) mpi.RPCErrCode {
	if errors.Is(err, faults.ErrExhaustedRetries) {
		return mpi.RPCErrExhausted
	}
	return mpi.RPCErrGeneric
}

// serveHit counts a hit serving bytes of key's resident block ent and traces
// it when those bytes can leave: at the block's arrival while it is still in
// flight, at the server's present once it has landed. The server's clock
// never waits for the block; the reply carrying it does (RPCReply.Ready).
func (s *server) serveHit(key blockKey, ent *cacheEntry, bytes int64) {
	s.stats.CacheHits++
	if s.cfg.TCIO.Trace != nil {
		s.cfg.TCIO.Trace.Record(trace.Event{
			Rank: s.c.Rank(), Start: max(s.c.Now(), ent.ready), Kind: trace.KindCacheServe,
			Bytes: bytes, Detail: fmt.Sprintf("blk=%d", key.blk),
		})
	}
}

// lineBlocks is the fill line: a miss fetches the missed block's
// aligned group of this many of the server's own domain blocks. A constant
// beside the domain block's four segments, not a knob (DESIGN.md §2e).
const lineBlocks = 4

// owned checks a run off the wire — a write record or a read — before the
// server indexes with it: non-empty, non-negative, not overflowing,
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
// (else the sender gets an error reply), from the block store: a hit from
// the resident block, a miss from the block's line fill. Either way the reply
// departs no earlier than the block's arrival, and the server goes on
// serving.
func (s *server) read(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	s.stats.ReadReqs++
	blk, err := s.owned("read", extent.Extent{Off: req.Off, Len: req.Len})
	rep := &mpi.RPCReply{Seq: req.Seq}
	if err == nil {
		key := blockKey{name: h.name, blk: blk}
		ent, hit := s.blocks[key]
		if hit {
			s.serveHit(key, ent, req.Len)
		} else {
			s.stats.CacheMisses++
			ent, err = s.fillLine(h, key)
		}
		if err == nil {
			// SendReply copies synchronously into its wire staging, so
			// serving a slice of the resident block is safe and zero-copy.
			rel := req.Off - s.domains.SegStart(blk)
			rep.OK, rep.Data, rep.Ready = true, ent.buf[rel:rel+req.Len], ent.ready
		}
	}
	if err != nil {
		rep.Code, rep.Err = errCode(err), err.Error()
	}
	return s.c.SendReply(req.Client, tagReply, rep)
}

// fillLine serves a miss on key critical block first: key's block, then the
// other non-resident, in-file blocks of its line, are fetched as one batch.
// Each block is kept with its own completion, and the server waits for none
// of them: the caller's reply departs at key's. A request that exhausts its
// retries fails itself (and leaves the rest of the line unissued); the error
// is the caller's only when it is key's.
func (s *server) fillLine(h *handleFile, key blockKey) (*cacheEntry, error) {
	n := int64(s.domains.P)
	blks := []int64{key.blk}
	// Walked from the missed block, n at a time: all owned by key's owner.
	_, slot := s.domains.Owner(key.blk)
	first := key.blk - slot%lineBlocks*n
	for blk := first; blk < first+lineBlocks*n; blk += n {
		_, resident := s.blocks[blockKey{name: h.name, blk: blk}]
		if blk != key.blk && !resident && s.domains.SegStart(blk) < h.pf.Size() {
			blks = append(blks, blk)
		}
	}
	bufs, done, filled, err := s.fetch(h, blks)
	for i, blk := range blks {
		if i < filled {
			s.blocks[blockKey{name: h.name, blk: blk}] = &cacheEntry{buf: bufs[i], ready: done[i]}
		} else {
			s.c.Recycle(bufs[i])
		}
	}
	if filled == 0 {
		return nil, err
	}
	return s.blocks[key], nil
}

// fetch posts whole domain blocks blks as one batch departing at the
// server's present, on the server's own storage client: the fetch is the
// server's doing, so the set fetched and every fault-roll key are a function
// of the blocks, not of whose request arrived first. It leaves the clock
// alone and returns each block's buffer and completion, and how many blocks
// were read — issue stops at the first request that exhausts its retries.
func (s *server) fetch(h *handleFile, blks []int64) (bufs [][]byte, done []simtime.Time, filled int, err error) {
	bufs, done = make([][]byte, len(blks)), make([]simtime.Time, len(blks))
	reqs := make([]storage.Request, len(blks))
	for i, blk := range blks {
		bufs[i] = s.c.GetBuf(int(s.domains.SegSize))
		reqs[i] = storage.Request{Off: s.domains.SegStart(blk), Data: bufs[i], Tag: fmt.Sprintf("blk=%d", blk)}
	}
	if mutate.Enabled(mutate.DelegateCacheStaleServe) {
		// Planted bug: "fetch" the blocks without reading the file system,
		// so the replies and every later hit serve zeros.
		for _, b := range bufs {
			clear(b)
		}
		return bufs, done, len(blks), nil
	}
	res, err := h.drain.ReadExtentsEach("delegate-fill", trace.KindFetch, reqs, s.c.Now(), done)
	s.stats.FSReads += res.Requests
	s.stats.Retries += res.Retries
	return bufs, done, int(res.Requests), err
}

// flush counts one client's flush marker toward its handle's write epoch
// and closes the epoch once every client has sent one. The quorum is the
// static client count, not the opens seen so far: a fast client's open,
// writes, and marker can all arrive before a slow client has even opened
// the file, and closing on a partial quorum would drain an epoch missing the
// slow clients' writes. Open is collective over the clients, so every client
// flushes exactly once per epoch, and FIFO per client orders a marker after
// the client's earlier requests.
func (s *server) flush(req *mpi.RPCRequest) error {
	h, err := s.lookup(req)
	if err != nil {
		return err
	}
	if h.flushed[req.Client] {
		return fmt.Errorf("delegate: double %s of handle %d from rank %d", req.Op, req.Handle, req.Client)
	}
	h.flushed[req.Client] = true
	if len(h.flushed) < s.clients {
		return nil
	}
	return s.closeEpoch(h)
}

// blockStage is one domain block's staging buffer during an epoch close.
type blockStage struct {
	blk  int64
	buf  []byte
	runs []extent.Extent // block-relative dirty runs, coalesced
}

// closeEpoch applies the epoch's staged writes block by block, each block's
// records in (client, seq) order — last write wins, deterministically —
// coalesces them, drains one batch, and acks every client in rank order,
// clearing the quorum for the next epoch.
// Drained runs write through into resident blocks, so post-flush reads hit
// the drained bytes.
func (s *server) closeEpoch(h *handleFile) error {
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
		s.stats.FSWrites += res.Requests
		s.stats.Retries += res.Retries
	}
	// Write the drained runs through into resident blocks so they keep the
	// file's bytes (a failed drain drops the block instead — its bytes can
	// no longer be trusted to match the file), then retire the pooled
	// staging buffers.
	for _, st := range stages {
		key := blockKey{name: h.name, blk: st.blk}
		if ent := s.blocks[key]; ent != nil {
			if drainErr == nil {
				for _, run := range st.runs {
					copy(ent.buf[run.Off:run.End()], st.buf[run.Off:run.End()])
				}
			} else {
				delete(s.blocks, key)
				s.c.Recycle(ent.buf)
			}
		}
		s.c.Recycle(st.buf)
	}
	s.stats.Epochs++
	h.epoch++
	h.staged = nil
	rep := &mpi.RPCReply{OK: drainErr == nil, Seq: h.epoch}
	if drainErr != nil {
		rep.Code, rep.Err = errCode(drainErr), drainErr.Error()
	}
	for cl := range s.c.Size() {
		if !h.flushed[cl] {
			continue
		}
		if err := s.c.SendReply(cl, tagReply, rep); err != nil {
			return err
		}
	}
	clear(h.flushed)
	return nil
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

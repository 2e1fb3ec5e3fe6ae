package tcio

// The per-file session. Until the delegation refactor, tcio.File carried a
// one-file assumption: every piece of engine state — the level-1 buffer,
// the level-2 window and its shared metadata, the lazy read queue, the
// stats ledger — lived directly
// on the handle struct, and nothing separated "state of this open file"
// from "state of this handle". session is that separation: one rank may
// hold many concurrently open files, each an independent session with its
// own window memory, shared metadata (SharedOnce hands every collective
// Open a fresh instance), landing records, and counters. File is now a
// thin handle — a file pointer and a closed flag — over its session.

import (
	"fmt"
	"math/bits"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/storage"
	"github.com/tcio/tcio/internal/wal"
)

// session is the per-file engine state of one open TCIO file on one rank.
// Two sessions on the same rank share nothing but the communicator: their
// windows, landing records, staging, and stats ledgers are fully independent,
// so interleaving I/O on concurrently open files cannot cross-contaminate
// counters or staged data.
type session struct {
	c    *mpi.Comm
	cfg  Config
	mode Mode
	name string

	// layout is the round-robin offset mapping of equations (1)-(3).
	layout   extent.Layout
	pieceCPU simtime.Duration // per-call library processing cost (pieceCharge)
	retry    faults.RetryPolicy

	win  *mpi.Win
	meta *l2meta
	// store is the file system access path: drain, populate, and preload
	// batches go through it for retry, tracing, and virtual-time charging.
	store *storage.Client

	// Level-1 buffer (write mode): the segment it is aligned with (-1 when
	// empty), its cached runs (segment-relative), and its host pages.
	l1Seg    int64
	l1Blocks []extent.Extent
	l1       *level1
	// openOwners lists the targets with an open shared put epoch, in
	// least-recently-used order (front = coldest, evicted first).
	openOwners []int
	// inflight is the window of outstanding Rput handles; pipelineDepth
	// bounds its length, retiring the oldest transfer when full.
	inflight []mpi.PutHandle
	// shipCount numbers this rank's one-sided shipments; it keys the
	// deterministic fault rolls of the put path.
	shipCount int64
	// Per-handle scratch for the ship and get paths. Safe to reuse across
	// calls because every consumer is done with it when it returns: the
	// window's puts and gets copy their bytes during the call.
	winRunsScratch []extent.Extent

	// staging is the session's one reused staging buffer, handed out by
	// stagingBuf: populations for another owner and journal epoch
	// snapshots. Plain memory, outside the simulated-memory accountant (only
	// Malloc and Reserve roll allocation faults, so staging cannot shift the
	// per-rank fault stream). A session stages one of them at a time, and
	// each copies its bytes out before the next.
	staging []byte

	// Journal tier (Config.Journal, write mode; DESIGN.md §2f). jw appends
	// this rank's flush epochs to its per-file journal; epoch is the
	// collective flush-epoch counter, advanced identically on every rank.
	jw    *wal.Writer
	epoch int64

	// landed is when the last population this rank posted lands in its
	// owner's window (populate); a read handle's Close waits for it, so no
	// window is freed while a posted read is still landing in it.
	landed simtime.Time
	// preloaded is the file size the read Open preloaded up to (0 without a
	// preload): every segment starting below it is populated (populated).
	preloaded int64

	// Lazy read queue. pendingSeg is the most recent segment touched;
	// pendingSwitches counts the queue's segment switches (see fetchBatch).
	pending         []readReq
	pendingSeg      int64
	pendingSwitches int
	// fetch is the fetch hot path's scratch (read.go), nil until the first
	// fetch; behind a pointer because session travels by value.
	fetch *fetchScratch
	// postFetch hooks run after the next completed Fetch — used by typed
	// reads to unpack staged bytes into the caller's layout.
	postFetch []func()

	stats Stats
}

// newSession builds the per-file engine state: window and level-1 memory
// charged to the rank's simulated share, the collective shared metadata,
// and the storage access path. cfg must already be normalized.
func newSession(c *mpi.Comm, name string, mode Mode, cfg Config) (session, error) {
	// Level-2 window: NumSegments segments of SegmentSize each, charged to
	// the rank's simulated share whole. A write handle's is one page, absent
	// until the first put allocates it or a flush gives it a level-1 page
	// (flushLevel1), and its drain hands it over; a read handle's is a table
	// of the file system's pages, every one absent until a population
	// installs it (populate), so a read handle keeps no second image of its
	// file.
	winSize := int64(cfg.NumSegments) * cfg.SegmentSize
	if err := c.Reserve(c.Machine().Scale(winSize)); err != nil {
		return session{}, fmt.Errorf("tcio: level-2 buffer: %w", err)
	}
	// Level-1 buffer: exactly one segment (paper §IV.A: "we set them to be
	// equal, and each level-1 buffer is aligned with one level-2 segment"),
	// charged to the rank's simulated share whole. The host holds only the
	// pages an epoch's pieces touch (newLevel1), and a read handle, which
	// never stages, holds none.
	if err := c.Reserve(c.Machine().Scale(cfg.SegmentSize)); err != nil {
		c.Release(c.Machine().Scale(winSize))
		return session{}, fmt.Errorf("tcio: level-1 buffer: %w", err)
	}
	// A write window's page is the window rounded up to a power of two, so
	// every drained run lies in it (drain).
	page := int64(1) << bits.Len64(uint64(winSize-1))
	if mode == ReadMode {
		// The window's page is the file system's, so a population installs
		// whole pages. A segment that is no whole number of them, or a page
		// that is no power of two (a window page is one), gets pages of the
		// window's own, the largest power of two in a segment, and its
		// populations copy.
		page = c.FS().Page()
		if cfg.SegmentSize%page != 0 || page&(page-1) != 0 {
			page = 1 << (bits.Len64(uint64(cfg.SegmentSize)) - 1)
		}
	}
	win, err := c.WinCreatePaged(winSize, page)
	if err != nil {
		return session{}, err
	}
	// SharedOnce is a fresh collective per call, so every Open — including
	// a second or third concurrent one on the same communicator — gets its
	// own l2meta.
	shared, err := c.SharedOnce(func() interface{} {
		return newL2Meta(int64(c.Size())*int64(cfg.NumSegments), cfg.Journal && mode == WriteMode)
	})
	if err != nil {
		return session{}, err
	}
	retry := cfg.retryPolicy()
	store := storage.NewClient(c.FS().Open(name), c.Node(), c.Rank(), c)
	store.SetRetryPolicy(retry)
	store.SetTrace(cfg.Trace)
	s := session{
		c:      c,
		cfg:    cfg,
		mode:   mode,
		name:   name,
		layout: extent.Layout{P: c.Size(), SegSize: cfg.SegmentSize, NumSeg: cfg.NumSegments},
		win:    win,
		meta:   shared.(*l2meta),
		store:  store,
		retry:  retry,
		l1Seg:  -1,
		// Each POSIX-like call costs library CPU (offset mapping, block
		// bookkeeping, copies). Scaled runs stand for ByteScale times as
		// many calls, so the charge scales accordingly (pieceCharge). Reads
		// are cheaper: lazy recording touches no data until Fetch.
		pieceCPU: simtime.Duration(150) * simtime.Duration(c.Machine().ByteScale),
	}
	if mode == WriteMode {
		s.l1 = newLevel1(cfg.SegmentSize)
	} else {
		s.pieceCPU = simtime.Duration(60) * simtime.Duration(c.Machine().ByteScale)
	}
	if cfg.Journal && mode == WriteMode {
		// The journal file lands on the OST after the data file's first —
		// offset by rank so P journals spread across the targets instead of
		// queuing behind the data stripes. Every armed rank creates its
		// journal at Open, so Recover can probe rank 0.. by existence.
		wfile := c.FS().OpenPlaced(WALFileName(name, c.Rank()),
			(store.File().FirstOST()+1+c.Rank())%c.FS().Config().OSTCount)
		wstore := storage.NewClient(wfile, c.Node(), c.Rank(), c)
		wstore.SetRetryPolicy(retry)
		wstore.SetTrace(cfg.Trace)
		s.jw = wal.NewWriter(wstore, c.Rank())
	}
	s.pendingSeg = -1
	return s, nil
}

// stagingBuf returns the first n bytes of the session's staging buffer,
// growing it (to at least one segment) when it is shorter. The bytes are
// stale: every caller fills what it hands on.
func (s *session) stagingBuf(n int64) []byte {
	if int64(len(s.staging)) < n {
		s.staging = make([]byte, max(n, s.layout.SegSize))
	}
	return s.staging[:n]
}

// release returns the session's accounted memory (Close calls it). A write
// handle's drain handed whole pages of the window to the file system, which
// keeps them as file contents (drain), and a read handle's window holds
// pages the file system lent it, so the window's bytes are returned to the
// accountant only: window memory is never pooled or reused after Close.
func (s *session) release() {
	s.c.Release(s.c.Machine().Scale(int64(s.layout.NumSeg) * s.layout.SegSize)) // the window
	s.c.Release(s.c.Machine().Scale(s.layout.SegSize))                          // the level-1 buffer
}

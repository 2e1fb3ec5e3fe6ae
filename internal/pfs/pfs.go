// Package pfs simulates the parallel file system of the paper's testbed:
// Lustre with 30 object storage targets (OSTs), a 1 MB stripe size, and —
// per the paper's §V.A — the default layout where each file lives on a
// single OST.
//
// Two cost mechanisms matter for the experiments:
//
//   - Per-request overhead: every read/write RPC pays a fixed cost before
//     any bytes move. Aggregated 1 MB accesses amortize it; vanilla MPI-IO's
//     tiny per-piece accesses do not — that difference is the ~100× ART gap
//     of Figs. 9-10.
//   - Extent locks: Lustre grants stripe-granular locks to clients. When a
//     stripe's lock moves between clients, a revocation round-trip is
//     charged. Interleaved small writes from many clients ping-pong locks;
//     segment-aligned accesses (TCIO level-2, OCIO file domains) do not.
//
// File contents are held in a real sparse byte store, so every experiment
// remains byte-for-byte verifiable. Service time is charged on simulated
// bytes (real bytes × the machine's ByteScale), letting small test buffers
// stand in for paper-scale datasets.
package pfs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/simtime"
)

// Config describes the file system hardware and protocol costs.
type Config struct {
	// OSTCount is the number of object storage targets (paper: 30).
	OSTCount int
	// StripeSize is the stripe and lock granularity in real bytes
	// (paper: 1 MB simulated; divide by ByteScale for scaled runs).
	StripeSize int64
	// StripeCount is the number of OSTs a new file is striped over
	// (paper default: 1).
	StripeCount int
	// WriteBandwidth is one OST's write service rate, simulated bytes/sec.
	WriteBandwidth float64
	// ReadBandwidth is one OST's read service rate, simulated bytes/sec
	// (higher: server-side caching).
	ReadBandwidth float64
	// RequestOverhead is the fixed per-RPC cost paid by the client
	// (round-trip latency, request marshalling).
	RequestOverhead simtime.Duration
	// ServerOverheadWrite is the per-write-request CPU cost on the object
	// server, charged into the OST's service queue: many small requests
	// consume server capacity that large aggregated requests do not.
	ServerOverheadWrite simtime.Duration
	// ServerOverheadRead is the per-read-request server cost. It is much
	// smaller than the write cost: Lustre's server-side readahead and
	// caching make repeated strided reads cheap.
	ServerOverheadRead simtime.Duration
	// LockRevocation is charged when a stripe's extent lock must be
	// revoked from another client.
	LockRevocation simtime.Duration
	// ReadAhead is the client-side readahead window in real bytes
	// (0 disables). A read falling entirely inside the window fetched by
	// the client's previous read on the same file costs only CacheHit —
	// Lustre clients prefetch aggressively on sequential access.
	ReadAhead int64
	// CacheHit is the cost of serving a read from the client cache.
	CacheHit simtime.Duration
	// ByteScale converts real bytes into simulated bytes for costing.
	ByteScale int64

	// Faults, when non-nil, injects OST failures: transient request errors
	// (faults.SiteOSTWrite / SiteOSTRead), slow-service multipliers
	// (SiteOSTSlow), and lock-revocation storms (SiteLockStorm).
	Faults *faults.Injector
	// FaultTimeout is the extra virtual time a request burns before its
	// injected failure is detected (the client's RPC timeout). 0 means
	// 2 ms.
	FaultTimeout simtime.Duration
}

// DefaultConfig returns a configuration calibrated to the paper's Lustre
// deployment (1 PB, 30 OSTs, 1 MB stripes, single-OST files).
func DefaultConfig() Config {
	return Config{
		OSTCount:            30,
		StripeSize:          1 << 20,
		StripeCount:         1,
		WriteBandwidth:      1.1e9,
		ReadBandwidth:       7.5e9,
		RequestOverhead:     400 * simtime.Microsecond,
		ServerOverheadWrite: 600 * simtime.Microsecond,
		ServerOverheadRead:  50 * simtime.Microsecond,
		LockRevocation:      1500 * simtime.Microsecond,
		ReadAhead:           1 << 20,
		CacheHit:            30 * simtime.Microsecond,
		ByteScale:           1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.OSTCount < 1:
		return fmt.Errorf("pfs: OSTCount %d", c.OSTCount)
	case c.StripeSize < 1:
		return fmt.Errorf("pfs: StripeSize %d", c.StripeSize)
	case c.StripeCount < 1 || c.StripeCount > c.OSTCount:
		return fmt.Errorf("pfs: StripeCount %d with %d OSTs", c.StripeCount, c.OSTCount)
	case c.ByteScale < 1:
		return fmt.Errorf("pfs: ByteScale %d", c.ByteScale)
	}
	return nil
}

// Stats aggregates file system activity.
type Stats struct {
	Reads         int64
	Writes        int64
	BytesRead     int64 // real bytes
	BytesWritten  int64 // real bytes
	LockConflicts int64
	CacheHits     int64

	// Chaos counters (all zero without an injector).
	FaultsInjected int64 // requests failed with a transient OST error
	Retries        int64 // request retries performed through the Retry APIs
	SlowServices   int64 // requests served under an injected slowdown
	LockStorms     int64 // revocations amplified into storms
}

// FileSystem is the shared simulated file system.
type FileSystem struct {
	cfg  Config
	osts []*simtime.Resource

	mu      sync.Mutex
	files   map[string]*File
	nextOST int
	// oplog is guarded by mu; oplogOn is its lock-free armed check, so the
	// store hot path pays one atomic load when crash logging is off.
	oplog   *Oplog
	oplogOn atomic.Bool

	reads         atomic.Int64
	writes        atomic.Int64
	bytesRead     atomic.Int64
	bytesWritten  atomic.Int64
	lockConflicts atomic.Int64
	cacheHits     atomic.Int64

	faultsInjected atomic.Int64
	retries        atomic.Int64
	slowServices   atomic.Int64
	lockStorms     atomic.Int64
}

// New creates a file system. It panics on an invalid configuration, which
// is always a programming error in experiment setup.
func New(cfg Config) *FileSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	fs := &FileSystem{cfg: cfg, files: make(map[string]*File)}
	fs.osts = make([]*simtime.Resource, cfg.OSTCount)
	for i := range fs.osts {
		fs.osts[i] = simtime.NewResource(fmt.Sprintf("ost%d", i))
	}
	return fs
}

// Config returns the file system parameters.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Open returns the named file, creating it if needed. Files are shared:
// all callers opening the same name operate on the same object, as MPI
// processes opening a shared file do.
func (fs *FileSystem) Open(name string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f
	}
	f := &File{
		fs:        fs,
		name:      name,
		firstOST:  fs.nextOST % fs.cfg.OSTCount,
		pages:     make(map[int64][]byte),
		lockOwner: make(map[int64]int),
		raWindow:  make(map[int]extent.Extent),
	}
	fs.nextOST += fs.cfg.StripeCount
	fs.files[name] = f
	if fs.oplog != nil {
		fs.oplog.append(OpRecord{Kind: OpOpen, Name: name, FirstOST: f.firstOST})
	}
	return f
}

// Stats returns a snapshot of the accumulated counters.
func (fs *FileSystem) Stats() Stats {
	return Stats{
		Reads:          fs.reads.Load(),
		Writes:         fs.writes.Load(),
		BytesRead:      fs.bytesRead.Load(),
		BytesWritten:   fs.bytesWritten.Load(),
		LockConflicts:  fs.lockConflicts.Load(),
		CacheHits:      fs.cacheHits.Load(),
		FaultsInjected: fs.faultsInjected.Load(),
		Retries:        fs.retries.Load(),
		SlowServices:   fs.slowServices.Load(),
		LockStorms:     fs.lockStorms.Load(),
	}
}

// Reset clears counters and OST queues (file contents are kept).
func (fs *FileSystem) Reset() {
	fs.reads.Store(0)
	fs.writes.Store(0)
	fs.bytesRead.Store(0)
	fs.bytesWritten.Store(0)
	fs.lockConflicts.Store(0)
	fs.cacheHits.Store(0)
	fs.faultsInjected.Store(0)
	fs.retries.Store(0)
	fs.slowServices.Store(0)
	fs.lockStorms.Store(0)
	for _, r := range fs.osts {
		r.Reset()
	}
}

// faultTimeout is the configured (or default) injected-failure RPC timeout.
func (fs *FileSystem) faultTimeout() simtime.Duration {
	if fs.cfg.FaultTimeout > 0 {
		return fs.cfg.FaultTimeout
	}
	return 2 * simtime.Millisecond
}

// pageSize is the granularity of the sparse backing store (real bytes).
const pageSize = 64 << 10

// File is one shared file. Methods are safe for concurrent use.
type File struct {
	fs       *FileSystem
	name     string
	firstOST int

	mu        sync.Mutex
	pages     map[int64][]byte
	size      int64
	lockOwner map[int64]int         // stripe index -> client (node) holding its lock
	raWindow  map[int]extent.Extent // reader (process) -> readahead window
}

// Size reports the file's current length in real bytes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// ostFor maps a stripe index to the OST resource serving it.
func (f *File) ostFor(stripe int64) *simtime.Resource {
	return f.fs.osts[(f.firstOST+int(stripe%int64(f.fs.cfg.StripeCount)))%f.fs.cfg.OSTCount]
}

// readAheadHit reports whether the reader's access [off, off+n) is covered
// by its readahead window, and advances the window: a miss prefetches
// [off, off+n+ReadAhead). The window is keyed per reading process (like
// POSIX per-descriptor readahead), not per node: a process's hit pattern
// then depends only on its own sequential access history, which keeps
// every downstream count deterministic no matter how the node's processes
// interleave. Writes invalidate nothing here — the window is a performance
// model, and contents are always served from the authoritative store.
func (f *File) readAheadHit(reader int, off, n int64) bool {
	ra := f.fs.cfg.ReadAhead
	if ra <= 0 || n <= 0 {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w, ok := f.raWindow[reader]
	if ok && off >= w.Off && off+n <= w.End() {
		return true
	}
	f.raWindow[reader] = extent.Extent{Off: off, Len: n + ra}
	return false
}

// chargeAccess accounts the virtual-time cost of one contiguous request of
// n real bytes at offset off issued by client at instant now. It returns
// the completion time. attempt distinguishes retries of the same request
// for the fault-injection rolls.
func (f *File) chargeAccess(client int, off, n int64, now simtime.Time, write bool, attempt int64) simtime.Time {
	cfg := f.fs.cfg
	end := now.Add(cfg.RequestOverhead)
	if n <= 0 {
		return end
	}
	bw := cfg.ReadBandwidth
	server := cfg.ServerOverheadRead
	if write {
		bw = cfg.WriteBandwidth
		server = cfg.ServerOverheadWrite
	}
	// Injected slow service: one struggling OST serves this request at a
	// fraction of its rate (disk rebuild, RAID scrub, overloaded server).
	slow := simtime.Duration(1)
	if cfg.Faults.Should(faults.SiteOSTSlow, int64(client), off, n, attempt) {
		slow = simtime.Duration(cfg.Faults.Factor(faults.SiteOSTSlow))
		f.fs.slowServices.Add(1)
	}
	serverCharged := false
	for _, chunk := range extent.SplitAt([]extent.Extent{{Off: off, Len: n}}, cfg.StripeSize) {
		s := chunk.Off / cfg.StripeSize
		simBytes := chunk.Len * cfg.ByteScale
		dur := simtime.BytesDuration(simBytes, bw) * slow
		if !serverCharged {
			// The request's server-side CPU cost lands on the OST serving
			// its first stripe, once per request.
			dur += server
			serverCharged = true
		}
		// Extent lock: writes need the stripe lock; a change of owner
		// costs a revocation round trip. Reads on Lustre also take locks,
		// but read locks are shared; only writes ping-pong.
		if write {
			f.mu.Lock()
			owner, held := f.lockOwner[s]
			f.lockOwner[s] = client
			f.mu.Unlock()
			if held && owner != client {
				revocations := simtime.Duration(1)
				// Injected storm: the revocation cascades through the
				// distributed lock manager's dependency chain, costing
				// Factor round trips instead of one.
				if cfg.Faults.Should(faults.SiteLockStorm, int64(client), s, attempt) {
					revocations = simtime.Duration(cfg.Faults.Factor(faults.SiteLockStorm))
					f.fs.lockStorms.Add(1)
				}
				dur += cfg.LockRevocation * revocations
				f.fs.lockConflicts.Add(int64(revocations))
			}
		}
		_, e := f.ostFor(s).Acquire(now, dur)
		if e > end {
			end = e
		}
	}
	return end.Add(cfg.RequestOverhead / 4) // completion acknowledgement
}

// WriteAt stores data at offset off on behalf of the given client (compute
// node), departing at virtual instant now, and returns the completion time.
// With fault injection enabled it can fail with a transient error (wrapping
// faults.ErrInjected); WriteAtRetry absorbs those under a retry policy.
func (f *File) WriteAt(client int, off int64, data []byte, now simtime.Time) (simtime.Time, error) {
	return f.writeAt(client, off, data, now, 0, false)
}

// writeAt performs one write attempt. handOver says the caller gives data up
// (storeBytes); it changes what the store allocates, never what is charged.
func (f *File) writeAt(client int, off int64, data []byte, now simtime.Time, attempt int64, handOver bool) (simtime.Time, error) {
	if off < 0 {
		return now, fmt.Errorf("pfs: negative offset %d", off)
	}
	if inj := f.fs.cfg.Faults; inj.Should(faults.SiteOSTWrite, int64(client), off, int64(len(data)), attempt) {
		f.fs.faultsInjected.Add(1)
		// The client burns the round trip plus its RPC timeout before the
		// failure surfaces; no bytes become durable.
		end := now.Add(f.fs.cfg.RequestOverhead + f.fs.faultTimeout())
		return end, fmt.Errorf("pfs: write %s: %w", f.name,
			inj.Fault(faults.SiteOSTWrite, "client=%d off=%d len=%d", client, off, len(data)))
	}
	f.fs.writes.Add(1)
	f.fs.bytesWritten.Add(int64(len(data)))
	end := f.chargeAccess(client, off, int64(len(data)), now, true, attempt)
	f.storeAndLog(off, data, now, end, handOver)
	return end, nil
}

// ReadAt fills dst from offset off on behalf of reader — the reading
// process, not its node: reads take only shared locks, so the read path
// needs no node identity, and per-process keying makes readahead hits (and
// hence fault rolls and service counts) independent of how a node's
// processes interleave. Bytes never written read as zero (sparse files).
// It returns the completion time. Like WriteAt, it can fail transiently
// under fault injection.
func (f *File) ReadAt(reader int, off int64, dst []byte, now simtime.Time) (simtime.Time, error) {
	return f.readAt(reader, off, dst, now, 0)
}

func (f *File) readAt(reader int, off int64, dst []byte, now simtime.Time, attempt int64) (simtime.Time, error) {
	if off < 0 {
		return now, fmt.Errorf("pfs: negative offset %d", off)
	}
	if inj := f.fs.cfg.Faults; inj.Should(faults.SiteOSTRead, int64(reader), off, int64(len(dst)), attempt) {
		f.fs.faultsInjected.Add(1)
		end := now.Add(f.fs.cfg.RequestOverhead + f.fs.faultTimeout())
		return end, fmt.Errorf("pfs: read %s: %w", f.name,
			inj.Fault(faults.SiteOSTRead, "reader=%d off=%d len=%d", reader, off, len(dst)))
	}
	f.fs.reads.Add(1)
	f.fs.bytesRead.Add(int64(len(dst)))
	var end simtime.Time
	if f.readAheadHit(reader, off, int64(len(dst))) {
		f.fs.cacheHits.Add(1)
		end = now.Add(f.fs.cfg.CacheHit)
	} else {
		end = f.chargeAccess(reader, off, int64(len(dst)), now, false, attempt)
	}
	f.loadBytes(off, dst)
	return end, nil
}

// WriteAtRetry is WriteAt under a retry policy: transient injected faults
// are absorbed with capped exponential backoff in virtual time until the
// write succeeds, the budget is spent, or the policy's deadline passes. It
// returns the completion time, the number of retries performed, and — on
// exhaustion — an error wrapping both faults.ErrExhaustedRetries and the
// final injected cause.
func (f *File) WriteAtRetry(client int, off int64, data []byte, now simtime.Time, pol faults.RetryPolicy) (simtime.Time, int64, error) {
	return f.retry(now, pol, func(at simtime.Time, attempt int64) (simtime.Time, error) {
		return f.writeAt(client, off, data, at, attempt, false)
	})
}

// HandOverAtRetry is WriteAtRetry for a caller that gives data up: every
// page the request covers whole is kept by reference, not copied
// (storeBytes). The caller must never write data again once the call
// returns — on an error too, since an attempt may have stored it. Charges,
// fault rolls, counters and the oplog record are those of WriteAtRetry.
func (f *File) HandOverAtRetry(client int, off int64, data []byte, now simtime.Time, pol faults.RetryPolicy) (simtime.Time, int64, error) {
	return f.retry(now, pol, func(at simtime.Time, attempt int64) (simtime.Time, error) {
		return f.writeAt(client, off, data, at, attempt, true)
	})
}

// ReadAtRetry is ReadAt under a retry policy; see WriteAtRetry.
func (f *File) ReadAtRetry(reader int, off int64, dst []byte, now simtime.Time, pol faults.RetryPolicy) (simtime.Time, int64, error) {
	return f.retry(now, pol, func(at simtime.Time, attempt int64) (simtime.Time, error) {
		return f.readAt(reader, off, dst, at, attempt)
	})
}

// retry drives one request through the shared faults.Retry loop, folding
// the absorbed faults into the file system's counters.
func (f *File) retry(now simtime.Time, pol faults.RetryPolicy, op func(simtime.Time, int64) (simtime.Time, error)) (simtime.Time, int64, error) {
	end, retries, err := faults.Retry(now, pol, op)
	if retries > 0 {
		f.fs.retries.Add(retries)
	}
	return end, retries, err
}

// storeBytes puts data into the sparse page store. It copies, unless
// handOver says the caller has given data up: then a page the data covers
// whole (aligned in the file, full length) becomes data's own sub-slice,
// capacity-capped so nothing can grow into its neighbour, and the page it
// replaces is dropped. Head and tail fragments are copied either way. A kept
// page is the store's from then on: later writes, truncates and reads treat
// it like any other.
func (f *File) storeBytes(off int64, data []byte, handOver bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(data)); end > f.size {
		f.size = end
	}
	for len(data) > 0 {
		page := off / pageSize
		in := off % pageSize
		n := int64(len(data))
		if room := pageSize - in; n > room {
			n = room
		}
		if handOver && n == pageSize {
			f.pages[page] = data[:pageSize:pageSize]
		} else {
			p, ok := f.pages[page]
			if !ok {
				p = make([]byte, pageSize)
				f.pages[page] = p
			}
			copy(p[in:in+n], data[:n])
		}
		off += n
		data = data[n:]
	}
}

// loadBytes copies from the sparse page store, zero-filling holes.
func (f *File) loadBytes(off int64, dst []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(dst) > 0 {
		page := off / pageSize
		in := off % pageSize
		n := int64(len(dst))
		if room := pageSize - in; n > room {
			n = room
		}
		if p, ok := f.pages[page]; ok {
			copy(dst[:n], p[in:in+n])
		} else {
			for i := int64(0); i < n; i++ {
				dst[i] = 0
			}
		}
		off += n
		dst = dst[n:]
	}
}

// Snapshot returns the file's full contents as a dense byte slice — test
// and verification helper, not part of the simulated I/O path.
func (f *File) Snapshot() []byte {
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	out := make([]byte, size)
	f.loadBytes(0, out)
	return out
}

// ---------------------------------------------------------------------------
// Crash simulation support: the operation log.
//
// An Oplog, when attached via SetOplog, records every successful durable
// mutation — file creations, stores, and truncates — together with the
// virtual-time interval the request occupied. "Crash at virtual time T" is
// then a pure post-hoc reconstruction: replay the log into a fresh file
// system, keeping stores that completed by T, discarding stores that had
// not started, and truncating the one in flight to the byte prefix the
// elapsed fraction of its service interval had made durable. One clean run
// yields the disk image of a crash at every possible instant.
//
// Replay determinism requires the single-writer discipline tcio's layout
// already guarantees: any two logged stores touching the same byte are
// issued by the same rank, so they are ordered identically in host append
// order and in virtual time. (Owner-partitioned drains and per-rank WAL
// files both satisfy this.)

// Oplog record kinds.
const (
	OpOpen     = iota // file created (Name, FirstOST)
	OpStore           // bytes became durable (Name, Off, Data, Start, End)
	OpTruncate        // file reset to empty (Name, Start, End)
)

// OpRecord is one logged durable mutation.
type OpRecord struct {
	Kind     int
	Name     string
	Off      int64
	Data     []byte // private copy (OpStore only)
	FirstOST int    // OpOpen only
	Start    simtime.Time
	End      simtime.Time
}

// Oplog accumulates OpRecords in host append order. Safe for concurrent use.
type Oplog struct {
	mu   sync.Mutex
	recs []OpRecord
}

// Records returns a snapshot of the logged records.
func (l *Oplog) Records() []OpRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]OpRecord(nil), l.recs...)
}

func (l *Oplog) append(r OpRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

// SetOplog attaches an operation log recording every subsequent durable
// mutation (nil detaches). Off by default: the log exists for the crash
// conformance class and costs nothing when absent.
func (fs *FileSystem) SetOplog(l *Oplog) {
	fs.mu.Lock()
	fs.oplog = l
	fs.oplogOn.Store(l != nil)
	fs.mu.Unlock()
}

func (fs *FileSystem) getOplog() *Oplog {
	if !fs.oplogOn.Load() {
		return nil
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.oplog
}

// Exists reports whether the named file exists, without creating it.
func (fs *FileSystem) Exists(name string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[name]
	return ok
}

// OpenPlaced is Open with an explicit first OST for a new file, bypassing
// the round-robin placement cursor. Side files (per-rank WALs) use it so
// their placement is a pure function of the data file's, not of creation
// order — and an existing file is returned unchanged, making concurrent
// placed opens idempotent.
func (fs *FileSystem) OpenPlaced(name string, firstOST int) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f
	}
	f := &File{
		fs:        fs,
		name:      name,
		firstOST:  ((firstOST % fs.cfg.OSTCount) + fs.cfg.OSTCount) % fs.cfg.OSTCount,
		pages:     make(map[int64][]byte),
		lockOwner: make(map[int64]int),
		raWindow:  make(map[int]extent.Extent),
	}
	fs.files[name] = f
	if fs.oplog != nil {
		fs.oplog.append(OpRecord{Kind: OpOpen, Name: name, FirstOST: f.firstOST})
	}
	return f
}

// FirstOST reports the OST serving the file's first stripe.
func (f *File) FirstOST() int { return f.firstOST }

// storeAndLog is storeBytes plus oplog recording of the store's service
// interval. The replay prefix cut divides the written length over
// [start, end), so callers pass the request's true departure and completion.
// The record keeps its own copy, handed over or not.
func (f *File) storeAndLog(off int64, data []byte, start, end simtime.Time, handOver bool) {
	f.storeBytes(off, data, handOver)
	if l := f.fs.getOplog(); l != nil {
		l.append(OpRecord{
			Kind: OpStore, Name: f.name, Off: off,
			Data: append([]byte(nil), data...), Start: start, End: end,
		})
	}
}

// StoreDirect stores bytes host-side: no virtual-time charge, no fault
// rolls, no statistics, no oplog. It is the materialization primitive of
// crash replay and recovery verification, not part of the simulated path.
func (f *File) StoreDirect(off int64, data []byte) {
	f.storeBytes(off, data, false)
}

// truncateAt resets the file to empty as a simulated client request: it
// pays the request overhead, can fail transiently at faults.SiteWALTruncate,
// and is logged. Unlike writes it does not count toward Stats.Writes — the
// journal-retirement RPC is control traffic, and the conformance write
// ledger stays an exact data identity.
func (f *File) truncateAt(client int, now simtime.Time, attempt int64) (simtime.Time, error) {
	if inj := f.fs.cfg.Faults; inj.Should(faults.SiteWALTruncate, int64(client), attempt) {
		f.fs.faultsInjected.Add(1)
		end := now.Add(f.fs.cfg.RequestOverhead + f.fs.faultTimeout())
		return end, fmt.Errorf("pfs: truncate %s: %w", f.name,
			inj.Fault(faults.SiteWALTruncate, "client=%d", client))
	}
	start := now
	end := now.Add(f.fs.cfg.RequestOverhead)
	f.mu.Lock()
	f.pages = make(map[int64][]byte)
	f.size = 0
	f.mu.Unlock()
	if l := f.fs.getOplog(); l != nil {
		l.append(OpRecord{Kind: OpTruncate, Name: f.name, Start: start, End: end})
	}
	return end, nil
}

// TruncateAtRetry is truncateAt under a retry policy; see WriteAtRetry.
func (f *File) TruncateAtRetry(client int, now simtime.Time, pol faults.RetryPolicy) (simtime.Time, int64, error) {
	return f.retry(now, pol, func(at simtime.Time, attempt int64) (simtime.Time, error) {
		return f.truncateAt(client, at, attempt)
	})
}

// ReplayAt reconstructs the durable state at virtual instant t into dst, a
// fresh file system (same geometry, no injector). Opens replay always (file
// creation is metadata, durable at issue); truncates apply when complete by
// t; stores apply fully when complete, not at all when unstarted, and as a
// deterministic byte prefix — n = len·(t−start)/(end−start), integer
// division, so strictly less than len while t < end — when in flight.
func (l *Oplog) ReplayAt(dst *FileSystem, t simtime.Time) {
	l.mu.Lock()
	recs := l.recs
	defer l.mu.Unlock()
	for _, r := range recs {
		switch r.Kind {
		case OpOpen:
			dst.OpenPlaced(r.Name, r.FirstOST)
		case OpTruncate:
			if r.End <= t {
				f := dst.Open(r.Name)
				f.mu.Lock()
				f.pages = make(map[int64][]byte)
				f.size = 0
				f.mu.Unlock()
			}
		case OpStore:
			if r.Start >= t {
				continue
			}
			data := r.Data
			if r.End > t {
				span := int64(r.End.Sub(r.Start))
				if span <= 0 {
					continue
				}
				n := int64(len(data)) * int64(t.Sub(r.Start)) / span
				data = data[:n]
			}
			if len(data) > 0 {
				dst.Open(r.Name).StoreDirect(r.Off, data)
			}
		}
	}
}

// LockOwners returns the stripes currently owned, in stripe order —
// a test helper for asserting lock behaviour.
func (f *File) LockOwners() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int64, 0, len(f.lockOwner))
	for s := range f.lockOwner {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

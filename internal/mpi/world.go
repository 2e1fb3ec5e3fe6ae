// Package mpi is an in-process message-passing runtime with MPI semantics,
// built so the TCIO algorithms can run unmodified in a Go simulator.
//
// Ranks are goroutines. The runtime provides exactly what the I/O stacks
// above it call: blocking eager point-to-point (Send, Recv from a rank or
// AnySource) and the typed request/reply messages the delegation tier rides
// on it; the collectives barrier, allreduce, allgather of byte payloads,
// all-to-all, SharedOnce and InClockOrder; and MPI-2 passive-target one-sided
// communication (windows with lock/unlock, put/get, indexed-datatype and
// request-based transfers) — no fence, which the paper rejects. DESIGN.md
// §2g lists every entry point with its callers and the shared state it
// touches.
//
// Data movement is real: bytes are copied between rank buffers, so tests
// can verify results exactly. Time is virtual: each rank owns a
// simtime.Clock, messages carry timestamps through the netsim network
// model, and shared hardware contention turns into elapsed virtual time.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/netsim"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/simtime"
)

// AnySource is the wildcard source for Recv and RecvRequest matching. Tags
// have no wildcard: a receive names its tag.
const AnySource = -1

// Config describes one parallel job.
type Config struct {
	// Procs is the number of MPI ranks.
	Procs int
	// Machine is the simulated cluster; the zero value defaults to Lonestar.
	Machine cluster.Machine
	// FS is the shared parallel file system; nil creates one with defaults
	// scaled by the machine's ByteScale.
	FS *pfs.FileSystem
	// EnforceMemory enables the per-node simulated memory accountant.
	// When false, allocations always succeed (most unit tests).
	EnforceMemory bool
	// Faults, when non-nil, arms chaos injection across the job's hardware:
	// it is attached to the memory accountant and — unless Machine.Net
	// already carries its own — to the interconnect. The file system keeps
	// its own pfs.Config.Faults (callers usually share one injector).
	Faults *faults.Injector
}

// World is the shared state of one job: the network, the file system, the
// memory accountant, and all rank mailboxes.
type World struct {
	nprocs  int
	machine cluster.Machine
	net     *netsim.Network
	fs      *pfs.FileSystem
	mem     *cluster.MemTracker

	faults       *faults.Injector
	allocRetries atomic.Int64

	ranks []*rankState
	pool  bufPool // the job's message staging buffers (bufpool.go)

	count    atomic.Int64 // ranks whose function has not returned <<32 + ranks parked
	aborted  atomic.Bool
	deadlock *DeadlockError // set before the abort that reports it
	barrier  *timeBarrier
}

// rankState is the per-rank runtime state.
type rankState struct {
	clock  *simtime.Clock
	box    *mailbox
	inTurn bool       // running its InClockOrder turn
	mu     sync.Mutex // guards wait
	wait   wait       // what the rank is parked on; zero when it is not
	wake   chan error
}

// Comm is rank's handle to the world — the equivalent of
// (MPI_COMM_WORLD, my_rank). All Comm methods must be called only from the
// owning rank's goroutine.
type Comm struct {
	w    *World
	rank int
}

// Report summarizes a completed run.
type Report struct {
	// MaxTime is the latest virtual instant reached by any rank: the
	// job's makespan.
	MaxTime simtime.Time
	// RankTimes holds each rank's final clock.
	RankTimes []simtime.Time
	// Net is the network activity of the run.
	Net netsim.Stats
	// FS is the file system activity of the run.
	FS pfs.Stats
	// PeakMemory is the largest simulated per-rank allocation high-water
	// mark, in simulated bytes.
	PeakMemory int64
	// AllocRetries counts Malloc/Reserve retries that absorbed transient
	// allocation pressure (chaos runs only).
	AllocRetries int64
}

// Run executes fn on every rank of a fresh world and waits for completion.
// A failing or panicking rank aborts the world so parked peers fail with
// ErrAborted instead of deadlocking; Run returns the first error, by rank
// order, that is not ErrAborted — the failure, not its echoes — and
// ErrAborted only when nothing else failed. A world in which every rank
// still running is parked aborts too, and Run returns its *DeadlockError.
func Run(cfg Config, fn func(*Comm) error) (Report, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return Report{}, err
	}
	errs := make([]error, cfg.Procs)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Procs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r] = fmt.Errorf("rank %d panicked: %v\n%s", r, p, debug.Stack())
				}
				if errs[r] != nil {
					w.stop(false) // a failed rank aborts before it retires
				}
				w.verdict(r, w.count.Add(-1<<32))
			}()
			if err := fn(&Comm{w: w, rank: r}); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
		}(r)
	}
	wg.Wait()

	rep := w.report()
	if w.deadlock != nil {
		return rep, w.deadlock
	}
	// The first failure in rank order that is not the abort itself: a rank
	// that only saw ErrAborted is a bystander of some other rank's error.
	var aborted error
	for _, e := range errs {
		if e != nil && !errors.Is(e, ErrAborted) {
			return rep, e
		}
		if aborted == nil {
			aborted = e
		}
	}
	return rep, aborted
}

func newWorld(cfg Config) (*World, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("mpi: Procs = %d", cfg.Procs)
	}
	m := cfg.Machine
	if m.Nodes == 0 {
		m = cluster.Lonestar()
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if need := m.NodesFor(cfg.Procs); need > m.Nodes {
		return nil, fmt.Errorf("mpi: %d ranks need %d nodes, machine has %d", cfg.Procs, need, m.Nodes)
	}
	fs := cfg.FS
	if fs == nil {
		fscfg := pfs.DefaultConfig()
		fscfg.ByteScale = m.ByteScale
		fscfg.Faults = cfg.Faults
		fs = pfs.New(fscfg)
	}
	var mem *cluster.MemTracker
	if cfg.EnforceMemory {
		mem = cluster.NewMemTracker(m, cfg.Procs)
	} else {
		mem = cluster.Unlimited()
	}
	mem.SetFaults(cfg.Faults)
	if cfg.Faults != nil && m.Net.Faults == nil {
		m.Net.Faults = cfg.Faults
	}
	w := &World{
		nprocs:  cfg.Procs,
		machine: m,
		net:     netsim.New(m.NodesFor(cfg.Procs), m.Net),
		fs:      fs,
		mem:     mem,
		faults:  cfg.Faults,
		barrier: newTimeBarrier(cfg.Procs),
	}
	w.count.Store(int64(cfg.Procs) << 32)
	w.ranks = make([]*rankState, cfg.Procs)
	for r := range w.ranks {
		w.ranks[r] = &rankState{clock: simtime.NewClock(), box: newMailbox(), wake: make(chan error, 1)}
	}
	return w, nil
}

// touchHook, when set, runs at every touch (SetTouchHook).
var touchHook func(rank int, site string, t simtime.Time)

// touch is the one gate a rank passes, at virtual instant t, just before it
// reads or writes simulated state another rank can reach: where a min-clock
// scheduler will take the baton (ROADMAP item 1).
func (w *World) touch(rank int, site string, t simtime.Time) {
	if touchHook != nil {
		touchHook(rank, site, t)
	}
}

// Touch is touch for storage.Client, before each file-system request.
func (c *Comm) Touch(site string, t simtime.Time) { c.w.touch(c.rank, site, t) }

// SetTouchHook installs fn at every touch (nil removes it) while no world runs.
func SetTouchHook(fn func(rank int, site string, t simtime.Time)) { touchHook = fn }

// ErrAborted is returned by blocking operations when the world has been
// torn down because some rank failed.
var ErrAborted = errors.New("mpi: world aborted")

// DeadlockError is Run's error when every running rank was parked. Waits[r]
// is rank r's wait — "recv src=1 tag=7", "lock target=1 excl", "collect" or
// "turn" — or "" if its function had returned.
type DeadlockError struct{ Waits []string }

func (e *DeadlockError) Error() string {
	var waits []string
	for r, wt := range e.Waits {
		if wt != "" {
			waits = append(waits, fmt.Sprintf("rank %d in %s", r, wt))
		}
	}
	return "mpi: deadlock: every running rank is parked: " + strings.Join(waits, "; ")
}

// wait is what a parked rank waits for, formatted only into a DeadlockError.
type wait struct {
	site string // "recv", "lock", "collect" or "turn"
	a, b int    // recv: src, tag; lock: target, 1 if exclusive
}

func (wt wait) String() string {
	switch wt.site {
	case "recv":
		return fmt.Sprintf("recv src=%d tag=%d", wt.a, wt.b)
	case "lock":
		return fmt.Sprintf("lock target=%d %s", wt.a, [2]string{"shared", "excl"}[wt.b])
	}
	return wt.site
}

// park is the one place a rank blocks on another. The caller holds mu and has
// left its waker a note to unpark it; park releases mu and returns once
// woken: nil from the waker, ErrAborted from an abort. A rank parks only
// where it would really block — a held window lock, a receive with no
// buffered match, a collective missing arrivals, a turn not yet its own —
// never on entry to something it can finish alone, so where it stops after a
// peer's failure, and how many fault rolls it makes first, is a function of
// its own operation sequence, not of host scheduling.
func (w *World) park(rank int, wt wait, mu *sync.Mutex) error {
	rs := w.ranks[rank]
	rs.mu.Lock()
	mu.Unlock()
	if w.aborted.Load() {
		rs.mu.Unlock()
		return ErrAborted
	}
	rs.wait = wt
	rs.mu.Unlock()
	w.verdict(rank, w.count.Add(1))
	return <-rs.wake
}

// unpark wakes rank with err if it is parked. The waker clears the wait
// before the wake, so a wake in flight never looks like a deadlock.
func (w *World) unpark(rank int, err error) {
	rs := w.ranks[rank]
	rs.mu.Lock()
	if rs.wait.site != "" {
		rs.wait = wait{}
		w.count.Add(-1)
		rs.wake <- err // one token per park: the channel's one slot is free
	}
	rs.mu.Unlock()
}

// countHook, when set, runs between a park's or a retirement's count and its verdict.
var countHook func(rank int)

// verdict stops the world as deadlocked if v, what rank's own Add returned, has every live rank parked.
func (w *World) verdict(rank int, v int64) {
	if countHook != nil {
		countHook(rank)
	}
	if parked := int64(int32(v)); parked > 0 && parked == (v-parked)>>32 {
		w.stop(true)
	}
}

// stop aborts the world once, waking every parked rank with ErrAborted; on
// a deadlock — every live rank parked — it first records their waits.
func (w *World) stop(deadlock bool) {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	if deadlock {
		dl := &DeadlockError{Waits: make([]string, len(w.ranks))}
		for r, rs := range w.ranks {
			rs.mu.Lock()
			dl.Waits[r] = rs.wait.String()
			rs.mu.Unlock()
		}
		w.deadlock = dl
	}
	for r := range w.ranks {
		w.unpark(r, ErrAborted)
	}
}

func (w *World) report() Report {
	rep := Report{
		RankTimes: make([]simtime.Time, w.nprocs),
		Net:       w.net.Stats(),
		FS:        w.fs.Stats(),
	}
	for r, rs := range w.ranks {
		rep.RankTimes[r] = rs.clock.Now()
		rep.MaxTime = max(rep.MaxTime, rs.clock.Now())
	}
	rep.PeakMemory = w.mem.MaxPeak()
	rep.AllocRetries = w.allocRetries.Load()
	return rep
}

// Rank reports the calling rank's id.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the world.
func (c *Comm) Size() int { return c.w.nprocs }

// Node reports the compute node hosting this rank.
func (c *Comm) Node() int { return c.w.machine.NodeOf(c.rank) }

// Machine returns the cluster description.
func (c *Comm) Machine() cluster.Machine { return c.w.machine }

// FS returns the shared parallel file system.
func (c *Comm) FS() *pfs.FileSystem { return c.w.fs }

// Faults returns the job's fault injector (nil when chaos is off). I/O
// libraries consult it for sites the hardware layers cannot model
// themselves (e.g. one-sided put drops retried by the library).
func (c *Comm) Faults() *faults.Injector { return c.w.faults }

// Now reports the rank's current virtual time.
func (c *Comm) Now() simtime.Time { return c.clock().Now() }

// Compute charges d of local computation to the rank's clock.
func (c *Comm) Compute(d simtime.Duration) { c.clock().Advance(d) }

// AdvanceTo moves the rank's clock forward to t if t is in the future —
// used by I/O layers that learn completion times from the file system.
func (c *Comm) AdvanceTo(t simtime.Time) { c.clock().AdvanceTo(t) }

func (c *Comm) clock() *simtime.Clock { return c.w.ranks[c.rank].clock }

// Malloc allocates n real bytes, charging n*ByteScale simulated bytes to
// this rank's node memory share. It fails with an error wrapping
// cluster.ErrOutOfMemory when the share is exhausted — the mechanism behind
// the paper's Fig. 6/7 OCIO failure at the 48 GB dataset. Transient
// injected allocation pressure is absorbed by faults.DefaultRetryPolicy,
// backing off in virtual time.
func (c *Comm) Malloc(n int64) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("mpi: Malloc(%d)", n)
	}
	if err := c.alloc(c.w.machine.Scale(n)); err != nil {
		return nil, err
	}
	return make([]byte, n), nil
}

// Reserve charges simulated memory without allocating real bytes — for
// accounting structures whose real size is deliberately smaller than their
// simulated size (for example an application's scaled-down arrays).
func (c *Comm) Reserve(simBytes int64) error {
	return c.alloc(simBytes)
}

// alloc charges simulated memory, retrying transient injected pressure
// with the default policy. Permanent failures (genuine OOM) pass through
// untouched.
func (c *Comm) alloc(simBytes int64) error {
	pol := faults.DefaultRetryPolicy()
	for attempt := 0; ; attempt++ {
		c.w.touch(c.rank, "alloc", c.clock().Now())
		err := c.w.mem.Alloc(c.rank, simBytes)
		if err == nil || !faults.IsTransient(err) {
			return err
		}
		if attempt >= pol.MaxRetries {
			return faults.Exhausted(attempt, err)
		}
		c.clock().Advance(pol.Backoff(attempt + 1))
		c.w.allocRetries.Add(1)
	}
}

// Free returns the simulated memory held by buf to this rank's share.
func (c *Comm) Free(buf []byte) {
	c.w.touch(c.rank, "free", c.clock().Now())
	c.w.mem.Free(c.rank, c.w.machine.Scale(int64(len(buf))))
}

// Release returns previously Reserved simulated bytes.
func (c *Comm) Release(simBytes int64) {
	c.w.touch(c.rank, "free", c.clock().Now())
	c.w.mem.Free(c.rank, simBytes)
}

// MemUsed reports the rank's current simulated memory footprint.
func (c *Comm) MemUsed() int64 { return c.w.mem.Used(c.rank) }

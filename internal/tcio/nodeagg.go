package tcio

// The intra-node aggregation tier (Config.NodeAggregation): an extra stage
// between the level-1 flush and the level-2 one-sided ship. Instead of every
// rank putting its own runs over the NIC — up to CoresPerNode inter-node
// messages per destination segment — co-located ranks hand their run lists
// and bytes to a per-segment node leader over the intra-node path (charged
// at MemBandwidth via Comm.IntraNodeCopy, never the NIC), and the leader
// merges everything into one combined indexed put per target segment
// (mpi.Win.PutGrouped). This is the request-merging idea of Kang et al.'s
// intra-node aggregation applied to TCIO's independent ship path.
//
// Determinism. Deposits happen at ship time, but combining happens only at
// collective boundaries: Flush/Close barrier first, so every deposit is
// visible to its leader, then each leader sweeps its segments in ascending
// order and merges each segment's deposits in (origin rank, per-origin
// program order). The combined put's content, its billed block list, and
// the leader's SiteWinPut fault rolls (keyed by the leader's shipCount) are
// therefore independent of goroutine scheduling.
//
// Causality. A depositor only pays the handoff's issue overhead; the
// intra-node copy retires later, so the leader advances to the latest
// deposit arrival before issuing the combined put, and l2meta records the
// combined put's arrival for the runs — the write-behind and drain lanes
// then bound their departures exactly as they do for per-rank puts.
//
// Staging memory. Deposited run lists and payload bytes live in plain Go
// memory, like populate's and prefetch's staging: transient library
// scratch, deliberately outside the simulated-memory accountant so arming
// aggregation cannot shift the per-rank allocation fault stream.

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mutate"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/trace"
)

// aggKey identifies one combine group: all deposits from one node's ranks
// destined for one global segment.
type aggKey struct {
	node int
	seg  int64
}

// aggDeposit is one origin rank's handed-off shipment: segment-relative
// runs, their bytes concatenated in run order, and the virtual instant the
// intra-node copy lands at the leader.
type aggDeposit struct {
	origin  int
	runs    []extent.Extent
	payload []byte
	arrival simtime.Time
}

// aggStaging is the node-shared deposit area, part of the file's shared
// state (SharedOnce). Same-origin deposits keep program order because each
// rank appends from its own goroutine; cross-origin order is arbitrary and
// canonicalized by the leader's stable sort.
type aggStaging struct {
	mu       sync.Mutex
	deposits map[aggKey][]aggDeposit
}

func newAggStaging() *aggStaging {
	return &aggStaging{deposits: make(map[aggKey][]aggDeposit)}
}

func (a *aggStaging) deposit(k aggKey, d aggDeposit) {
	a.mu.Lock()
	a.deposits[k] = append(a.deposits[k], d)
	a.mu.Unlock()
}

// takeLed removes and returns every deposit group of the given node whose
// segment the keep predicate claims, with segments in ascending order.
func (a *aggStaging) takeLed(node int, keep func(seg int64) bool) ([]int64, [][]aggDeposit) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var segs []int64
	for k := range a.deposits {
		if k.node == node && keep(k.seg) {
			segs = append(segs, k.seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	groups := make([][]aggDeposit, len(segs))
	for i, seg := range segs {
		k := aggKey{node: node, seg: seg}
		groups[i] = a.deposits[k]
		delete(a.deposits, k)
	}
	return segs, groups
}

// depositForAggregation is the aggregated ship path: instead of putting the
// runs over the NIC, hand them to this segment's node leader. The origin
// pays the handoff (intra-node bandwidth) and keeps its per-rank shipment
// accounting — Level1Flush and the flush trace event count deposits exactly
// as they count baseline puts, so per-rank counters are aggregation-blind.
func (f *File) depositForAggregation(seg int64, runs []extent.Extent, payload []byte) error {
	owner, slot := f.segmentOwner(seg)
	if slot >= int64(f.numSeg) {
		return fmt.Errorf("%w: segment %d needs slot %d of %d", ErrCapacity, seg, slot, f.numSeg)
	}
	node := f.c.Node()
	leader := f.c.Machine().NodeLeader(node, f.c.Size(), seg)
	t0 := f.c.Now()
	arrival, err := f.c.IntraNodeCopy(leader, int64(len(payload)))
	if err != nil {
		return err
	}
	// Private copies: the caller reuses its level-1 buffer and run list the
	// moment ship returns, exactly as it would after a baseline put.
	rcopy := append([]extent.Extent(nil), runs...)
	pcopy := make([]byte, len(payload))
	copy(pcopy, payload)
	f.agg.deposit(aggKey{node: node, seg: seg},
		aggDeposit{origin: f.c.Rank(), runs: rcopy, payload: pcopy, arrival: arrival})
	f.stats.Level1Flush++
	if f.tracing() {
		f.emit(trace.KindFlush, t0, int64(len(payload)), fmt.Sprintf("seg=%d owner=%d runs=%d", seg, owner, len(runs)))
	}
	return nil
}

// leaderSweep runs after the collective barrier that makes all deposits
// visible: this rank combines, for every segment it leads on its node, the
// node's deposits into one grouped put to the segment owner. Sweep order
// (ascending segment) and merge order (origin ascending, program order
// within an origin) are canonical, so the leader's put stream and fault
// rolls are schedule-independent.
func (f *File) leaderSweep() error {
	if !f.aggEnabled {
		return nil
	}
	node := f.c.Node()
	m := f.c.Machine()
	segs, groups := f.agg.takeLed(node, func(seg int64) bool {
		return m.NodeLeader(node, f.c.Size(), seg) == f.c.Rank()
	})
	for i, seg := range segs {
		deps := groups[i]
		sort.SliceStable(deps, func(a, b int) bool { return deps[a].origin < deps[b].origin })
		if mutate.Enabled(mutate.TCIONodeAggDropDeposit) && deps[0].origin != deps[len(deps)-1].origin {
			// Deliberate bug: lose the highest-origin rank's deposits.
			last := deps[len(deps)-1].origin
			kept := deps[:0]
			for _, d := range deps {
				if d.origin != last {
					kept = append(kept, d)
				}
			}
			deps = kept
		}
		if err := f.combine(seg, deps); err != nil {
			return err
		}
	}
	return nil
}

// combine issues one grouped put carrying every deposit of (node, seg) and
// records the union of their runs as dirty with the combined arrival.
func (f *File) combine(seg int64, deps []aggDeposit) error {
	owner, slot := f.segmentOwner(seg)
	t0 := f.c.Now()
	if err := f.openEpochFor(owner); err != nil {
		return err
	}
	f.reserveInflight()
	groups := make([]mpi.PutGroup, len(deps))
	var union []extent.Extent
	var bytes int64
	var latest simtime.Time
	origins := 0
	for i, d := range deps {
		winRuns := make([]extent.Extent, len(d.runs))
		for j, r := range d.runs {
			winRuns[j] = extent.Extent{Off: slot*f.segSize + r.Off, Len: r.Len}
		}
		groups[i] = mpi.PutGroup{Origin: d.origin, Segs: winRuns, Data: d.payload}
		union = append(union, d.runs...)
		bytes += int64(len(d.payload))
		if d.arrival > latest {
			latest = d.arrival
		}
		if i == 0 || deps[i-1].origin != d.origin {
			origins++
		}
	}
	// The combined put cannot depart before the last handoff physically
	// reached this leader.
	t1 := f.c.Now()
	f.c.AdvanceTo(latest)
	h, err := f.putGroupedRetry(owner, seg, groups)
	if err != nil {
		return err
	}
	f.inflight = append(f.inflight, h)
	t2 := f.c.Now()
	f.stats.LockWait += t1.Sub(t0)
	f.stats.PutIssue += t2.Sub(t1)
	f.meta.addDirty(seg, extent.Coalesce(union), h.Arrival())
	f.stats.NodeCombines++
	if f.c.Machine().NodeOf(owner) != f.c.Node() {
		f.stats.InterNodePutsSaved += int64(len(deps)) - 1
	}
	if f.tracing() {
		f.emit(trace.KindCombine, t0, bytes,
			fmt.Sprintf("seg=%d owner=%d origins=%d deposits=%d", seg, owner, origins, len(deps)))
	}
	return nil
}

// putGroupedRetry is putSegmentsRetry for the combined put: same retry
// driver, same SiteWinPut roll keyed by this rank's shipment number, so
// chaos runs replay exactly — a failed roll never issues the put.
func (f *File) putGroupedRetry(owner int, seg int64, groups []mpi.PutGroup) (mpi.PutHandle, error) {
	inj := f.c.Faults()
	ship := f.shipCount
	f.shipCount++
	start := f.c.Now()
	var handle mpi.PutHandle
	end, retries, err := faults.Retry(start, f.retry,
		func(at simtime.Time, attempt int64) (simtime.Time, error) {
			f.c.AdvanceTo(at)
			if inj.Should(faults.SiteWinPut, int64(f.c.Rank()), ship, attempt) {
				return f.c.Now(), inj.Fault(faults.SiteWinPut, "rank=%d seg=%d owner=%d (combine)",
					f.c.Rank(), seg, owner)
			}
			var perr error
			handle, perr = f.win.PutGroupedAsync(owner, groups)
			return f.c.Now(), perr
		})
	f.c.AdvanceTo(end)
	if retries > 0 {
		f.stats.Retries += retries
		f.emit(trace.KindRetry, start, 0,
			fmt.Sprintf("combine seg=%d owner=%d retries=%d", seg, owner, retries))
	}
	if err != nil {
		return mpi.PutHandle{}, fmt.Errorf("tcio: combine segment %d to rank %d: %w", seg, owner, err)
	}
	return handle, nil
}

package tcio

// The intra-node aggregation tier (Config.NodeAggregation): an extra stage
// between the level-1 flush and the level-2 one-sided ship. Instead of every
// rank putting its own runs over the NIC — up to CoresPerNode inter-node
// messages per destination segment — co-located ranks hand their run lists
// and bytes to a per-segment node leader over the intra-node path (charged
// at MemBandwidth via Comm.IntraNodeCopy, never the NIC), and the leader
// merges everything in its own level-1 buffer and ships the union as one
// ordinary indexed put per target segment — the same put (level2.go) every
// rank's flush issues. This is the request-merging idea of Kang et al.'s
// intra-node aggregation applied to TCIO's independent ship path.
//
// Determinism. Deposits happen at ship time, but combining happens only at
// collective boundaries: Flush/Close barrier first, so every deposit is
// visible to its leader, then each leader sweeps its segments in ascending
// order and merges each segment's deposits in (origin rank, per-origin
// program order), the later deposit winning on overlap. The combined put's
// content, its billed block list, and the leader's SiteWinPut fault rolls
// (keyed by the leader's shipCount) are therefore independent of goroutine
// scheduling.
//
// Causality. A depositor only pays the handoff's issue overhead; the
// intra-node copy retires later, so the leader advances to the latest
// deposit arrival before issuing the combined put, and l2meta records the
// combined put's arrival for the runs — the write-behind and drain lanes
// then bound their departures exactly as they do for per-rank puts.
//
// Staging memory. Deposited run lists and payload bytes live in plain Go
// memory, like the session's staging: transient library
// scratch, deliberately outside the simulated-memory accountant so arming
// aggregation cannot shift the per-rank allocation fault stream.

import (
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/extent"
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
	owner, _ := f.layout.Owner(seg)
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
// node's deposits into one put to the segment owner. Sweep order
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

// combine merges every deposit of (node, seg) into this leader's level-1
// buffer — idle here, since flushLevel1 ran before the barrier — in the
// given order, so on overlapping runs the later deposit wins, and ships the
// union as one ordinary indexed put that departs once the last handoff
// physically reached this leader.
func (f *File) combine(seg int64, deps []aggDeposit) error {
	var bytes int64
	var latest simtime.Time
	origins := 0
	for i, d := range deps {
		pos := int64(0)
		for _, r := range d.runs {
			copy(f.l1Buf[r.Off:r.End()], d.payload[pos:pos+r.Len])
			pos += r.Len
		}
		f.l1Blocks = append(f.l1Blocks, d.runs...)
		bytes += int64(len(d.payload))
		latest = simtime.Max(latest, d.arrival)
		if i == 0 || deps[i-1].origin != d.origin {
			origins++
		}
	}
	blocks, payload := f.packLevel1()
	f.l1Blocks = f.l1Blocks[:0]
	t0 := f.c.Now()
	owner, err := f.put(seg, blocks, payload, latest)
	if err != nil {
		return err
	}
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

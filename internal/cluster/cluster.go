// Package cluster describes the simulated machine: node count, cores and
// memory per node, the mapping of MPI ranks onto nodes, and a per-node
// memory accountant that turns over-allocation into the same out-of-memory
// failure the paper observed for OCIO at the 48 GB dataset (Figs. 6-7).
//
// Because experiments at paper scale would not fit in a test process, the
// machine also carries a ByteScale factor: algorithms move real (smaller)
// buffers while time and memory accounting charge realBytes*ByteScale, so
// one code path serves both byte-exact correctness tests and paper-scale
// performance modelling.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/netsim"
)

// Machine describes the simulated cluster.
type Machine struct {
	// Name labels the configuration in reports.
	Name string
	// Nodes is the number of compute nodes available.
	Nodes int
	// CoresPerNode is the number of MPI ranks placed per node.
	CoresPerNode int
	// MemPerNode is the simulated memory capacity of one node, in bytes.
	MemPerNode int64
	// ByteScale multiplies real buffer sizes into simulated sizes for the
	// time and memory models. 1 means "what you allocate is what you pay".
	ByteScale int64
	// Net holds the interconnect parameters.
	Net netsim.Config
}

// Lonestar returns the paper's testbed: TACC Lonestar — 1,888 nodes, two
// 6-core processors per node, 24 GB memory per node, QDR InfiniBand fat
// tree (§V.A).
func Lonestar() Machine {
	return Machine{
		Name:         "lonestar",
		Nodes:        1888,
		CoresPerNode: 12,
		MemPerNode:   24 << 30,
		ByteScale:    1,
		Net:          netsim.DefaultConfig(),
	}
}

// Validate reports whether the machine description is usable.
func (m Machine) Validate() error {
	switch {
	case m.Nodes < 1:
		return fmt.Errorf("cluster: %d nodes", m.Nodes)
	case m.CoresPerNode < 1:
		return fmt.Errorf("cluster: %d cores per node", m.CoresPerNode)
	case m.MemPerNode < 0:
		return fmt.Errorf("cluster: negative memory per node")
	case m.ByteScale < 1:
		return fmt.Errorf("cluster: ByteScale %d < 1", m.ByteScale)
	}
	return nil
}

// Scale converts a real byte count into simulated bytes.
func (m Machine) Scale(realBytes int64) int64 { return realBytes * m.ByteScale }

// NodesFor reports how many nodes a job of nprocs ranks occupies under
// block placement (ranks 0..CoresPerNode-1 on node 0, and so on).
func (m Machine) NodesFor(nprocs int) int {
	return (nprocs + m.CoresPerNode - 1) / m.CoresPerNode
}

// NodeOf maps a rank to its node under block placement.
func (m Machine) NodeOf(rank int) int { return rank / m.CoresPerNode }

// NodeRankRange reports the half-open rank interval [lo, hi) placed on node
// for a job of nprocs ranks: the inverse of NodeOf restricted to the job.
// The last node of a job may be partially filled.
func (m Machine) NodeRankRange(node, nprocs int) (lo, hi int) {
	lo = node * m.CoresPerNode
	hi = lo + m.CoresPerNode
	if lo > nprocs {
		lo = nprocs
	}
	if hi > nprocs {
		hi = nprocs
	}
	return lo, hi
}

// SpreadServers picks which ranks of an nprocs-rank job become dedicated
// I/O delegation servers, spreading them across the job's nodes so server
// traffic does not concentrate on one node's link. Server j prefers the
// highest still-unused rank of node j*nodes/servers (the top of a node is
// the rank least likely to lead node-local collectives), falling back to
// the highest unused rank anywhere when that node is exhausted. The result
// is sorted ascending; rank 0 is never chosen while any other rank is
// free, so the job keeps a conventional root. The election is a pure
// function of (placement, counts): every rank computes the same set
// without communicating.
func (m Machine) SpreadServers(nprocs, servers int) []int {
	if servers <= 0 || servers >= nprocs {
		return nil
	}
	nodes := m.NodesFor(nprocs)
	used := make(map[int]bool, servers)
	picks := make([]int, 0, servers)
	for j := 0; j < servers; j++ {
		node := j * nodes / servers
		lo, hi := m.NodeRankRange(node, nprocs)
		pick := -1
		for r := hi - 1; r >= lo; r-- {
			if !used[r] && r != 0 {
				pick = r
				break
			}
		}
		if pick < 0 {
			for r := nprocs - 1; r > 0; r-- {
				if !used[r] {
					pick = r
					break
				}
			}
		}
		used[pick] = true
		picks = append(picks, pick)
	}
	sort.Ints(picks)
	return picks
}

// ErrOutOfMemory is returned (wrapped) when a simulated allocation exceeds a
// node's capacity. Match it with errors.Is.
var ErrOutOfMemory = errors.New("simulated out of memory")

// MemTracker charges simulated allocations against per-node capacity.
// Capacity is divided evenly among the ranks of a node, mirroring how batch
// systems on the paper's testbed partition memory per core. A zero capacity
// disables enforcement (useful in unit tests of other layers).
type MemTracker struct {
	mu       sync.Mutex
	perRank  int64
	used     map[int]int64 // rank -> simulated bytes in use
	peak     map[int]int64
	disabled bool
	faults   *faults.Injector
}

// NewMemTracker builds a tracker for a job of nprocs ranks on machine m.
func NewMemTracker(m Machine, nprocs int) *MemTracker {
	t := &MemTracker{
		used: make(map[int]int64, nprocs),
		peak: make(map[int]int64, nprocs),
	}
	if m.MemPerNode == 0 {
		t.disabled = true
		return t
	}
	ranksPerNode := m.CoresPerNode
	if nprocs < ranksPerNode {
		ranksPerNode = nprocs
	}
	if ranksPerNode < 1 {
		ranksPerNode = 1
	}
	t.perRank = m.MemPerNode / int64(ranksPerNode)
	return t
}

// Unlimited returns a tracker that never refuses an allocation.
func Unlimited() *MemTracker {
	return &MemTracker{
		used:     make(map[int]int64),
		peak:     make(map[int]int64),
		disabled: true,
	}
}

// SetFaults attaches a fault injector: allocations can then fail with
// transient pressure (faults.SiteMemAlloc) — a neighbour's page-cache
// spike or balloon that clears moments later. Transient failures wrap
// faults.ErrInjected, not ErrOutOfMemory, so retry policies absorb them
// while genuine capacity exhaustion stays permanent.
func (t *MemTracker) SetFaults(in *faults.Injector) { t.faults = in }

// Alloc charges simBytes of simulated memory to rank. It fails with an
// error wrapping ErrOutOfMemory when the rank's share would be exceeded,
// or with a transient injected error under fault injection.
func (t *MemTracker) Alloc(rank int, simBytes int64) error {
	if simBytes < 0 {
		return fmt.Errorf("cluster: negative allocation %d", simBytes)
	}
	if t.faults.ShouldNext(faults.SiteMemAlloc, int64(rank), 0) {
		return fmt.Errorf("rank %d: transient allocation pressure: %w",
			rank, t.faults.Fault(faults.SiteMemAlloc, "rank=%d sim=%dB", rank, simBytes))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	next := t.used[rank] + simBytes
	if !t.disabled && next > t.perRank {
		return fmt.Errorf("rank %d: allocating %d B on top of %d B exceeds %d B per-rank capacity: %w",
			rank, simBytes, t.used[rank], t.perRank, ErrOutOfMemory)
	}
	t.used[rank] = next
	if next > t.peak[rank] {
		t.peak[rank] = next
	}
	return nil
}

// Free returns simBytes of simulated memory from rank. Freeing more than is
// in use clamps to zero.
func (t *MemTracker) Free(rank int, simBytes int64) {
	if simBytes < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.used[rank] -= simBytes
	if t.used[rank] < 0 {
		t.used[rank] = 0
	}
}

// Used reports the rank's current simulated allocation.
func (t *MemTracker) Used(rank int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.used[rank]
}

// MaxPeak reports the largest per-rank high-water mark across all ranks.
func (t *MemTracker) MaxPeak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m int64
	for _, v := range t.peak {
		if v > m {
			m = v
		}
	}
	return m
}

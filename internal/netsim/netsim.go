// Package netsim models the cluster interconnect in virtual time.
//
// The model is a calibrated alpha-beta cost model with two contention
// mechanisms layered on top:
//
//   - NIC serialization: each node has one egress and one ingress resource;
//     bytes stream through them at NIC bandwidth, so a node cannot send or
//     receive faster than its link.
//   - Incast congestion: when many transfers target the same node's ingress
//     within an overlapping virtual-time window (the classic all-to-all
//     burst), the effective service time of each transfer is inflated. This
//     reproduces the connection-storm collapse that the TCIO paper blames
//     for OCIO's poor write throughput at 512+ processes, while TCIO's
//     paced, one-at-a-time one-sided transfers stay in the uncongested
//     regime.
//
// Message classes distinguish two-sided sends (which pay rendezvous
// matching/setup) from one-sided RDMA puts/gets (cheaper setup, no matching),
// mirroring the paper's §IV discussion of why TCIO uses MPI_Put/MPI_Get.
package netsim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"github.com/tcio/tcio/internal/faults"
	"github.com/tcio/tcio/internal/simtime"
)

// Class describes the flavour of a transfer, which determines its setup cost.
type Class int

const (
	// TwoSided is a matched send/receive pair (MPI_Isend/MPI_Irecv).
	TwoSided Class = iota
	// OneSided is an RDMA-style put or get (MPI_Put/MPI_Get).
	OneSided
)

// String names the class for diagnostics.
func (c Class) String() string {
	switch c {
	case TwoSided:
		return "two-sided"
	case OneSided:
		return "one-sided"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Config holds the interconnect parameters. The defaults approximate the
// paper's testbed: Mellanox InfiniBand, fat tree, 40 Gbit/s point-to-point.
type Config struct {
	// Latency is the end-to-end propagation latency per message.
	Latency simtime.Duration
	// SetupTwoSided is charged per two-sided message (matching, rendezvous).
	SetupTwoSided simtime.Duration
	// SetupOneSided is charged per one-sided message (RDMA work request).
	SetupOneSided simtime.Duration
	// NICBandwidth is the per-node link bandwidth in bytes/second.
	NICBandwidth float64
	// MemBandwidth is the intra-node copy bandwidth in bytes/second, used
	// when source and destination ranks share a node.
	MemBandwidth float64
	// IncastThreshold is the number of virtual-time-overlapping inbound
	// transfers a node tolerates before congestion sets in.
	IncastThreshold int
	// IncastScale divides the excess overlap before the power law is
	// applied: penalty = 1 + ((overlap-threshold)/scale)^IncastExponent.
	IncastScale float64
	// IncastExponent shapes the collapse. Values above 1 make connection
	// storms degrade superlinearly, which is what produces the paper's
	// large-scale OCIO write falloff.
	IncastExponent float64
	// MaxPenalty caps the congestion multiplier.
	MaxPenalty float64

	// Faults, when non-nil, injects interconnect failures: dropped
	// connection setups (faults.SiteNetSetup), which the NIC retries after
	// SetupRetryDelay, and slowed transfers (SiteNetSlow), whose wire time
	// is multiplied by the rule's Factor.
	Faults *faults.Injector
	// SetupRetryDelay is the virtual time burned per failed connection
	// setup before the NIC retries. 0 means 200 µs.
	SetupRetryDelay simtime.Duration
}

// DefaultConfig returns parameters calibrated against the paper's testbed
// (Lonestar: QDR InfiniBand fat tree, 40 Gbit/s ≈ 5 GB/s links).
func DefaultConfig() Config {
	return Config{
		Latency:         2 * simtime.Microsecond,
		SetupTwoSided:   3 * simtime.Microsecond,
		SetupOneSided:   600 * simtime.Nanosecond,
		NICBandwidth:    5e9,
		MemBandwidth:    20e9,
		IncastThreshold: 1024,
		IncastScale:     640,
		IncastExponent:  2.0,
		MaxPenalty:      1e4,
	}
}

// flowWindow tracks the transfers that overlap in virtual time at one port
// (a node's egress or ingress). The count of concurrently open windows is
// the port's instantaneous load: k+1 overlapping transfers each proceed at
// 1/(k+1) of the line rate, which keeps the model work-conserving without a
// FIFO queue (a queue ordered by call time would suffer virtual-time
// inversions between concurrently simulated ranks and stall the job).
//
// Only the instants at which open windows end matter, so the port keeps
// them in a binary min-heap: a transfer costs O(log burst) however deep the
// burst it joins. The heap is written out because container/heap boxes
// every pushed element, and this path must not allocate.
type flowWindow struct {
	mu   sync.Mutex
	ends []simtime.Time // min-heap: ends[0] is the window that closes first
}

// overlapAt counts windows still open at instant t (end > t), forgets the
// closed ones for good, and records a new window ending at end. Windows
// that begin after t are counted too: they belong to the same burst epoch,
// and the port's switch state sees their connections.
func (fw *flowWindow) overlapAt(t, end simtime.Time) int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	h := fw.ends
	for len(h) > 0 && h[0] <= t {
		// Pop the root: move the last leaf up and sift it down.
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	n := len(h)
	h = append(h, end)
	for i := n; i > 0; {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	fw.ends = h
	return n
}

// node is the per-node interconnect state. The traffic counters count what
// the node originated: a transfer bumps only its source's, so ranks on
// different nodes never contend for one cache line, and Stats sums them.
type node struct {
	egress  flowWindow
	ingress flowWindow

	oneSided  atomic.Int64
	twoSided  atomic.Int64
	bytes     atomic.Int64
	congested atomic.Int64
}

// Stats summarizes network activity since construction or the last Reset.
type Stats struct {
	Messages       int64
	Bytes          int64
	LocalMessages  int64
	PeakOverlap    int64
	CongestedMsgs  int64 // messages that paid an incast penalty
	OneSidedMsgs   int64
	TwoSidedMsgs   int64
	SetupTimeTotal simtime.Duration

	// Chaos counters (all zero without an injector).
	SetupRetries  int64 // connection setups dropped and retried by the NIC
	SlowTransfers int64 // transfers served under an injected slowdown
}

// Network is the interconnect shared by all simulated nodes.
type Network struct {
	cfg   Config
	nodes []*node

	localMessages atomic.Int64
	peakOverlap   atomic.Int64
	setupRetries  atomic.Int64
	slowTransfers atomic.Int64
}

// New creates a network connecting nodeCount nodes.
func New(nodeCount int, cfg Config) *Network {
	if nodeCount < 1 {
		panic("netsim: need at least one node")
	}
	n := &Network{cfg: cfg, nodes: make([]*node, nodeCount)}
	for i := range n.nodes {
		n.nodes[i] = &node{}
	}
	return n
}

// Transfer moves size bytes from node src to node dst, departing at the
// given virtual instant, and returns the arrival instant. The byte payload
// itself is moved by the caller (the MPI layer); Transfer only accounts for
// time. Transfer is safe for concurrent use.
func (n *Network) Transfer(src, dst int, size int64, depart simtime.Time, class Class) simtime.Time {
	if src < 0 || src >= len(n.nodes) || dst < 0 || dst >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: transfer %d->%d outside %d nodes", src, dst, len(n.nodes)))
	}
	if size < 0 {
		size = 0
	}
	from := n.nodes[src]
	setup := n.cfg.SetupTwoSided
	if class == OneSided {
		setup = n.cfg.SetupOneSided
		from.oneSided.Add(1)
	} else {
		from.twoSided.Add(1)
	}
	from.bytes.Add(size)

	if src == dst {
		// Same node: a memory copy, no NIC involvement.
		n.localMessages.Add(1)
		return depart.Add(setup).Add(simtime.BytesDuration(size, n.cfg.MemBandwidth))
	}

	// Injected connection-setup drops: IB fabrics retry a failed work
	// request in hardware after a timeout, so the failure surfaces only as
	// burned virtual time. Bounded so a probability of 1 cannot spin.
	if inj := n.cfg.Faults; inj.Enabled(faults.SiteNetSetup) {
		retryDelay := n.cfg.SetupRetryDelay
		if retryDelay <= 0 {
			retryDelay = 200 * simtime.Microsecond
		}
		for tries := 0; tries < 8 && inj.ShouldNext(faults.SiteNetSetup, int64(src), int64(dst)); tries++ {
			setup += retryDelay
			n.setupRetries.Add(1)
		}
	}

	ready := depart.Add(setup)
	wire := simtime.BytesDuration(size, n.cfg.NICBandwidth)

	// Injected slow transfer: a degraded link or cable serves this flow at
	// a fraction of line rate.
	if inj := n.cfg.Faults; inj != nil && inj.ShouldNext(faults.SiteNetSlow, int64(src), int64(dst)) {
		wire = simtime.Duration(float64(wire) * inj.Factor(faults.SiteNetSlow))
		n.slowTransfers.Add(1)
	}

	// Source NIC: k concurrent outbound flows share the line rate.
	end := ready.Add(wire)
	egOverlap := from.egress.overlapAt(ready, end)
	egressDur := wire * simtime.Duration(egOverlap+1)

	// Destination NIC: concurrent inbound flows share the line rate, and a
	// connection storm beyond the threshold collapses goodput superlinearly
	// (incast).
	inOverlap := n.nodes[dst].ingress.overlapAt(ready, end)
	for {
		// Monotone max: a plain load-then-store lets a smaller concurrent
		// observation overwrite a larger one.
		peak := n.peakOverlap.Load()
		if int64(inOverlap) <= peak || n.peakOverlap.CompareAndSwap(peak, int64(inOverlap)) {
			break
		}
	}
	penalty := 1.0
	if extra := inOverlap - n.cfg.IncastThreshold; extra > 0 {
		scale := n.cfg.IncastScale
		if scale <= 0 {
			scale = 1
		}
		exp := n.cfg.IncastExponent
		if exp <= 0 {
			exp = 1
		}
		penalty = 1 + math.Pow(float64(extra)/scale, exp)
		if penalty > n.cfg.MaxPenalty {
			penalty = n.cfg.MaxPenalty
		}
		from.congested.Add(1)
	}
	ingressDur := simtime.Duration(float64(wire) * float64(inOverlap+1) * penalty)

	dur := egressDur
	if ingressDur > dur {
		dur = ingressDur
	}
	return ready.Add(dur).Add(n.cfg.Latency)
}

// Stats returns a snapshot of the accumulated counters. SetupTimeTotal is
// every message's configured setup charge, by class; the extra time of
// injected setup retries is not in it (SetupRetries counts those).
func (n *Network) Stats() Stats {
	s := Stats{
		LocalMessages: n.localMessages.Load(),
		PeakOverlap:   n.peakOverlap.Load(),
		SetupRetries:  n.setupRetries.Load(),
		SlowTransfers: n.slowTransfers.Load(),
	}
	for _, nd := range n.nodes {
		s.TwoSidedMsgs += nd.twoSided.Load()
		s.OneSidedMsgs += nd.oneSided.Load()
		s.Bytes += nd.bytes.Load()
		s.CongestedMsgs += nd.congested.Load()
	}
	s.Messages = s.TwoSidedMsgs + s.OneSidedMsgs
	s.SetupTimeTotal = simtime.Duration(s.TwoSidedMsgs)*n.cfg.SetupTwoSided +
		simtime.Duration(s.OneSidedMsgs)*n.cfg.SetupOneSided
	return s
}

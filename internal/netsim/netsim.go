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
	"slices"
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
	mu   sync.Mutex     // held by join, or by Post across a run of messages
	ends []simtime.Time // min-heap: ends[0] is the window that closes first
}

// overlapAt counts windows still open at instant t (end > t), forgets the
// closed ones for good, and records a new window ending at end. Windows
// that begin after t are counted too: they belong to the same burst epoch,
// and the port's switch state sees their connections. The caller holds mu.
func (fw *flowWindow) overlapAt(t, end simtime.Time) int {
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

// join is overlapAt under the port's lock: one message's window.
func (fw *flowWindow) join(t, end simtime.Time) int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.overlapAt(t, end)
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

// Msg is one message of a burst posted with Post: Size bytes from node Src
// to node Dst, departing at Depart. Post sets Arrival.
type Msg struct {
	Src, Dst int
	Size     int64
	Depart   simtime.Time
	Arrival  simtime.Time

	ready           simtime.Time     // after setup: the wire window opens
	wire            simtime.Duration // unshared line time
	egress, ingress int              // windows open at each port on joining
}

// Transfer moves size bytes from node src to node dst, departing at the
// given virtual instant, and returns the arrival instant: what Post of a
// one-message burst returns, through the same per-message steps without
// the passes. The byte payload itself is moved by the caller (the MPI
// layer); Transfer only accounts for time. Transfer is safe for concurrent
// use.
func (n *Network) Transfer(src, dst int, size int64, depart simtime.Time, class Class) simtime.Time {
	m := Msg{Src: src, Dst: dst, Size: size, Depart: depart}
	retries, slow := n.open(&m, class)
	var local, congested int64
	peak := 0
	if m.Src == m.Dst {
		local = 1
	} else {
		m.egress = n.nodes[m.Src].egress.join(m.ready, m.ready.Add(m.wire))
		m.ingress = n.nodes[m.Dst].ingress.join(m.ready, m.ready.Add(m.wire))
		if n.arrive(&m) {
			congested = 1
		}
		peak = m.ingress
	}
	n.nodes[m.Src].count(class, 1, m.Size, congested)
	n.addTotals(local, retries, slow, peak)
	return m.Arrival
}

// Post moves a burst of messages of one class and sets each one's Arrival.
// Arrivals, fault rolls and Stats are those of one Transfer per message in
// list order. The work runs in passes over the list: setup, fault rolls and
// wire time in order; then each port's windows, a port locked once per run
// of consecutive messages that share it; then penalties and arrivals, the
// counters and the peak added once. Post is safe for concurrent use;
// concurrent callers' messages interleave with the burst's only between
// runs. A negative Size is taken as zero.
func (n *Network) Post(msgs []Msg, class Class) {
	var local, retries, slow int64
	for i := range msgs {
		r, sl := n.open(&msgs[i], class)
		retries, slow = retries+r, slow+sl
		if msgs[i].Src == msgs[i].Dst {
			local++
		}
	}

	n.joinPorts(msgs, false)
	n.joinPorts(msgs, true)

	peak := 0
	var from *node
	var sent, bytes, congested int64
	for i := range msgs {
		m := &msgs[i]
		if nd := n.nodes[m.Src]; nd != from {
			from.count(class, sent, bytes, congested)
			from, sent, bytes, congested = nd, 0, 0, 0
		}
		sent++
		bytes += m.Size
		if m.Src == m.Dst {
			continue
		}
		peak = max(peak, m.ingress)
		if n.arrive(m) {
			congested++
		}
	}
	from.count(class, sent, bytes, congested)
	n.addTotals(local, retries, slow, peak)
}

// open validates a message and charges what precedes the wire: its setup,
// the injected setup drops and slowdown (it reports how many of each it
// rolled), and its unshared wire time. A same-node message is a memory copy
// with no NIC involvement, and open sets its Arrival.
func (n *Network) open(m *Msg, class Class) (retries, slow int64) {
	if m.Src < 0 || m.Src >= len(n.nodes) || m.Dst < 0 || m.Dst >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: transfer %d->%d outside %d nodes", m.Src, m.Dst, len(n.nodes)))
	}
	m.Size = max(m.Size, 0)
	setup := n.cfg.SetupTwoSided
	if class == OneSided {
		setup = n.cfg.SetupOneSided
	}
	if m.Src == m.Dst {
		m.Arrival = m.Depart.Add(setup).Add(simtime.BytesDuration(m.Size, n.cfg.MemBandwidth))
		return 0, 0
	}

	// Injected connection-setup drops: IB fabrics retry a failed work
	// request in hardware after a timeout, so the failure surfaces only as
	// burned virtual time. Bounded so a probability of 1 cannot spin.
	inj := n.cfg.Faults
	if inj.Enabled(faults.SiteNetSetup) {
		retryDelay := n.cfg.SetupRetryDelay
		if retryDelay <= 0 {
			retryDelay = 200 * simtime.Microsecond
		}
		for ; retries < 8 && inj.ShouldNext(faults.SiteNetSetup, int64(m.Src), int64(m.Dst)); retries++ {
			setup += retryDelay
		}
	}
	m.ready = m.Depart.Add(setup)
	m.wire = simtime.BytesDuration(m.Size, n.cfg.NICBandwidth)

	// Injected slow transfer: a degraded link or cable serves this flow at
	// a fraction of line rate.
	if inj != nil && inj.ShouldNext(faults.SiteNetSlow, int64(m.Src), int64(m.Dst)) {
		m.wire = simtime.Duration(float64(m.wire) * inj.Factor(faults.SiteNetSlow))
		slow = 1
	}
	return retries, slow
}

// arrive sets a remote message's Arrival from the windows it joined and
// reports whether it paid the incast penalty. Source NIC: k concurrent
// outbound flows share the line rate. Destination NIC: concurrent inbound
// flows share the line rate, and a connection storm beyond the threshold
// collapses goodput superlinearly (incast).
func (n *Network) arrive(m *Msg) (congested bool) {
	penalty := 1.0
	if extra := m.ingress - n.cfg.IncastThreshold; extra > 0 {
		scale := n.cfg.IncastScale
		if scale <= 0 {
			scale = 1
		}
		exp := n.cfg.IncastExponent
		if exp <= 0 {
			exp = 1
		}
		penalty = min(1+math.Pow(float64(extra)/scale, exp), n.cfg.MaxPenalty)
		congested = true
	}
	egressDur := m.wire * simtime.Duration(m.egress+1)
	ingressDur := simtime.Duration(float64(m.wire) * float64(m.ingress+1) * penalty)
	m.Arrival = m.ready.Add(max(egressDur, ingressDur)).Add(n.cfg.Latency)
	return congested
}

// addTotals adds to the network-wide counters: same-node copies, setup
// retries and slowed transfers, and the largest ingress overlap seen.
func (n *Network) addTotals(local, retries, slow int64, peak int) {
	if local > 0 {
		n.localMessages.Add(local)
	}
	if retries > 0 {
		n.setupRetries.Add(retries)
	}
	if slow > 0 {
		n.slowTransfers.Add(slow)
	}
	for {
		// Monotone max: a plain load-then-store lets a smaller concurrent
		// observation overwrite a larger one.
		old := n.peakOverlap.Load()
		if int64(peak) <= old || n.peakOverlap.CompareAndSwap(old, int64(peak)) {
			break
		}
	}
}

// joinPorts opens every remote message's wire window at its egress port
// (ingress false) or its ingress port, in list order, and records how many
// windows it found open. A port is locked once per run of consecutive
// messages that reach it; same-node messages do not break a run.
//
// An ingress heap first reserves room for a run of several messages, so it
// grows once per run rather than by doubling. An egress heap does not: its
// run is a whole source's burst, whose early windows close while the run
// goes on, and reserving the run's length grew the heaps more than doubling
// does (synth-ocio allocated 0.9 MB more per rep, results/pr36.md).
func (n *Network) joinPorts(msgs []Msg, ingress bool) {
	var held *flowWindow
	for i := range msgs {
		m := &msgs[i]
		fw := n.port(m, ingress)
		if fw == nil {
			continue
		}
		if fw != held {
			if held != nil {
				held.mu.Unlock()
			}
			held = fw
			fw.mu.Lock()
			if ingress {
				run := 1
				for j := i + 1; j < len(msgs); j++ {
					if p := n.port(&msgs[j], true); p == fw {
						run++
					} else if p != nil {
						break
					}
				}
				if run > 1 { // a lone message appends after its pops
					fw.ends = slices.Grow(fw.ends, run)
				}
			}
		}
		open := fw.overlapAt(m.ready, m.ready.Add(m.wire))
		if ingress {
			m.ingress = open
		} else {
			m.egress = open
		}
	}
	if held != nil {
		held.mu.Unlock()
	}
}

// port is the message's egress or ingress port; nil for a same-node copy.
func (n *Network) port(m *Msg, ingress bool) *flowWindow {
	switch {
	case m.Src == m.Dst:
		return nil
	case ingress:
		return &n.nodes[m.Dst].ingress
	default:
		return &n.nodes[m.Src].egress
	}
}

// count adds a run of messages sent from the node to its traffic counters.
func (nd *node) count(class Class, sent, bytes, congested int64) {
	if nd == nil {
		return
	}
	if class == OneSided {
		nd.oneSided.Add(sent)
	} else {
		nd.twoSided.Add(sent)
	}
	nd.bytes.Add(bytes)
	if congested > 0 {
		nd.congested.Add(congested)
	}
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

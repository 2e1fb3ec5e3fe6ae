package main

// Span probes: the benchmark's own instrumentation around every call it
// makes into a layer. Spans are recorded from outside the layers (the
// layer packages are not edited), per rank, in memory, and written out
// only after the traced rep ends. In untraced reps every handle below is
// nil and every method returns at its nil check, so the end-to-end numbers
// carry no probe cost.

import (
	"math/bits"
	"time"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// hist is a log2-bucket histogram of non-negative integer samples (virtual
// nanoseconds, or bytes). Bucket b holds samples whose bit length is b, so
// a percentile is resolved to within a factor of two; max is exact.
type hist struct {
	buckets [65]int64
	n       int64
	max     int64
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	if o == nil {
		return
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the upper edge of the bucket holding the q-quantile,
// clamped to the exact maximum. It is 0 for an empty histogram.
func (h *hist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			if b == 0 {
				return 0
			}
			edge := int64(1)<<uint(b) - 1
			if edge > h.max || edge < 0 {
				edge = h.max
			}
			return edge
		}
	}
	return h.max
}

// span is one recorded interval on one rank. A plain span is one call; a
// folded span stands for every per-piece call of one kind in one phase:
// [vt0, vt1] runs from the first call's start to the last call's end,
// busyVT sums the calls alone, and calls holds their distribution. Host
// times bracket the span; they are not summed per call, because a rank's
// wall time inside a call is mostly time spent descheduled behind the
// other ranks sharing the host's cores (the CPU profile prices calls).
type span struct {
	layer, name string
	parent      int32 // index of the enclosing span on this rank, -1 at top level
	vt0, vt1    simtime.Time
	h0, h1      int64 // host nanoseconds since the tracer started
	count       int64
	busyVT      simtime.Duration
	calls       *hist // folded spans only: per-call virtual nanoseconds
}

// tracer holds the spans of one traced rep, one worldTrace per mpi.Run.
type tracer struct {
	t0     time.Time
	worlds []*worldTrace
	// rec rides along as tcio.Config.Trace wherever the benchmark opens
	// tcio itself, so the library's own events are on the clock too.
	rec *trace.Recorder
}

func newTracer() *tracer { return &tracer{t0: time.Now(), rec: trace.New(0)} }

// recorder is the trace.Recorder handed to tcio.Config.Trace: nil unless
// the rep is traced.
func (t *tracer) recorder() *trace.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// worldTrace holds one probe per rank of one mpi.Run, and its report.
type worldTrace struct {
	name   string
	probes []*probe
	report mpi.Report
}

// world registers the next mpi.Run of the rep. Call it before mpi.Run, on
// the harness goroutine.
func (t *tracer) world(name string, procs int) *worldTrace {
	if t == nil {
		return nil
	}
	w := &worldTrace{name: name, probes: make([]*probe, procs)}
	for r := range w.probes {
		w.probes[r] = &probe{t0: t.t0, rank: r}
	}
	t.worlds = append(t.worlds, w)
	return w
}

// rank returns the calling rank's probe; each rank touches only its own.
func (w *worldTrace) rank(c *mpi.Comm) *probe {
	if w == nil {
		return nil
	}
	p := w.probes[c.Rank()]
	p.c = c
	return p
}

// probe records one rank's spans.
type probe struct {
	c     *mpi.Comm
	t0    time.Time
	rank  int
	spans []span
	open  []int32 // stack of open plain spans

	tcio         []tcio.Stats // File.Stats() of each file this rank closed
	mpiioRetries int64
}

func (p *probe) parent() int32 {
	if len(p.open) == 0 {
		return -1
	}
	return p.open[len(p.open)-1]
}

// begin opens a plain span; end closes the innermost open one.
func (p *probe) begin(layer, name string) {
	if p == nil {
		return
	}
	p.spans = append(p.spans, span{
		layer: layer, name: name, parent: p.parent(), count: 1,
		vt0: p.c.Now(), h0: int64(time.Since(p.t0)),
	})
	p.open = append(p.open, int32(len(p.spans)-1))
}

func (p *probe) end() {
	if p == nil {
		return
	}
	s := &p.spans[p.open[len(p.open)-1]]
	p.open = p.open[:len(p.open)-1]
	s.vt1, s.h1 = p.c.Now(), int64(time.Since(p.t0))
	s.busyVT = s.vt1.Sub(s.vt0)
}

// fold opens a folded span under the current parent. It stays open until
// the rep ends; calls are added with enter/leave.
func (p *probe) fold(layer, name string) *fold {
	if p == nil {
		return nil
	}
	p.spans = append(p.spans, span{layer: layer, name: name, parent: p.parent(), calls: &hist{}})
	return &fold{p: p, idx: len(p.spans) - 1}
}

// addTCIO keeps a closed file's counters.
func (p *probe) addTCIO(s tcio.Stats) {
	if p == nil {
		return
	}
	p.tcio = append(p.tcio, s)
}

// addRetries accumulates an mpiio handle's absorbed transient faults.
func (p *probe) addRetries(n int64) {
	if p == nil {
		return
	}
	p.mpiioRetries += n
}

// fold is the handle of one folded span.
type fold struct {
	p   *probe
	idx int
}

// enter returns the virtual instant one folded call starts at.
func (f *fold) enter() simtime.Time {
	if f == nil {
		return 0
	}
	s := &f.p.spans[f.idx]
	if s.count == 0 {
		s.vt0, s.h0 = f.p.c.Now(), int64(time.Since(f.p.t0))
	}
	return f.p.c.Now()
}

func (f *fold) leave(start simtime.Time) {
	if f == nil {
		return
	}
	s := &f.p.spans[f.idx]
	s.vt1, s.h1 = f.p.c.Now(), int64(time.Since(f.p.t0))
	s.count++
	d := s.vt1.Sub(start)
	s.busyVT += d
	s.calls.add(int64(d))
}

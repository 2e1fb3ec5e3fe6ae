package bench

// The wall-clock scale harness: where every other sweep in this package
// measures *virtual* time (what the simulated machine would take), this one
// measures what the *host* takes to simulate it — the N-clients regime of
// "Design and Evaluation of a Collective IO Model for Loosely Coupled
// Petascale Programming" (PAPERS.md) mapped onto thousands of rank
// goroutines. It drives a fixed strided-write+read program at N ranks for
// each GOMAXPROCS setting and reports wall-clock, ns/op, and B/op next to
// the seed-deterministic virtual-time columns, so CI can diff the
// deterministic columns while the timing columns document host scalability.
//
// The program is deliberately hot-path-heavy: every piece crosses the
// level-1/level-2 ship (window locks + l2meta), every phase boundary is a
// collective (timeBarrier), ring exchanges cross the mailbox (exact and
// AnySource), and a trace recorder rides along so its append path is on the
// clock too.

import (
	"fmt"
	"runtime"
	"time"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
	"github.com/tcio/tcio/internal/trace"
)

// scaleGeometry configures the wall-clock scale sweep.
type scaleGeometry struct {
	Procs      []int // simulated rank counts to drive
	GoMaxProcs []int // runtime.GOMAXPROCS settings to sweep
}

// defaultScale sweeps N in {64, 256, 1024, 4096} at GOMAXPROCS in
// {1, 2, 4, 8} — the acceptance grid of the host-scalability work.
func defaultScale() *scaleGeometry {
	return &scaleGeometry{Procs: []int{64, 256, 1024, 4096}, GoMaxProcs: []int{1, 2, 4, 8}}
}

// The piece geometry fills exactly one level-2 segment per rank: a rank's
// drain (and preload) is then a single file-system request departing at
// the common post-barrier instant, so the shared OST queue sees symmetric
// customers and its makespan is host-order-independent. Fewer pieces would
// leave holes inside the contiguous region the read phase verifies; two or
// more segments per rank would chain the second request off the first's
// queue-position-dependent completion and wobble the virtual time.
const (
	// scaleSegSize is the level-2 segment size of the scale program: small,
	// so thousands of ranks fit real memory while every piece still crosses
	// the ship path.
	scaleSegSize = 8192
	// scalePieces is the number of strided pieces each rank writes (and the
	// granularity it reads back in); scalePieceBytes is one piece's size.
	scalePieces     = 32
	scalePieceBytes = scaleSegSize / scalePieces
	// scalePhases is the number of barrier-separated phases of the write
	// loop.
	scalePhases = 4
	// scaleByteScale is the environment byte scale.
	scaleByteScale = 256
)

// scalePoint is one (procs, GOMAXPROCS) cell. Wall-clock and per-op
// fields are host-timing facts and vary run to run; the virtual
// time, request counts, and trace length are seed-deterministic.
type scalePoint struct {
	Procs, GoMaxProcs int

	WallNs, NsPerOp, BytesPerOp, AllocsPerOp int64

	VirtualNs, TraceEvents int64
}

// scaleByte is the ground truth for piece i, byte b of rank r.
func scaleByte(r int, i int, b int64) byte {
	return byte(r*131 + i*29 + int(b)*11 + 7)
}

// scaleOff is the file offset of piece i of rank r: rank r fills the
// segment owned by rank (r+1) mod P with consecutive pieces. Every level-1
// ship is then a genuine cross-rank one-sided put, but each owner's window
// lock has exactly one customer — the discipline that keeps virtual time
// deterministic under host concurrency (see DESIGN.md: shared-resource
// customers must stay symmetric between barriers).
func scaleOff(r, i, p int) int64 {
	return int64((r+1)%p)*scaleSegSize + int64(i)*scalePieceBytes
}

// scaleWant inverts scaleOff: the expected byte at file offset fo.
func scaleWant(fo int64, p int) byte {
	r := (int(fo/scaleSegSize) - 1 + p) % p
	return scaleByte(r, int(fo%scaleSegSize/scalePieceBytes), fo%scalePieceBytes)
}

// runScalePoint executes the strided write + contiguous read program once
// at the point's rank count and fills in the deterministic measurements.
func runScalePoint(env *Env, p *scalePoint) Row {
	fileBytes := int64(scaleSegSize) * int64(p.Procs)
	rec := trace.New(0)
	tc := tcio.Config{
		SegmentSize: scaleSegSize,
		NumSegments: 1,
		Trace:       rec,
	}
	const name = "scale"

	// Write phase: each rank writes its strided pieces, with a collective
	// barrier between phases and one ring exchange per phase boundary (the
	// first exact-source, later ones AnySource — both mailbox paths stay
	// hot).
	var row Row
	row.PhaseResult = env.Run(p.Procs, fileBytes*env.Scale, func(c *mpi.Comm, _ *Tally) error {
		h, err := tcio.Open(c, name, tcio.WriteMode, tc)
		if err != nil {
			return err
		}
		buf := make([]byte, scalePieceBytes)
		const phase = scalePieces / scalePhases
		for i := 0; i < scalePieces; i++ {
			if i > 0 && i%phase == 0 {
				// Ring first, barrier second: the receive arrivals are
				// host-order-assigned within a deterministic multiset, and
				// the barrier's max collapses them before any rank touches a
				// shared NIC port again.
				if err := scaleRing(c, i/phase); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			off := scaleOff(c.Rank(), i, c.Size())
			for b := range buf {
				buf[b] = scaleByte(c.Rank(), i, int64(b))
			}
			if err := h.WriteAt(off, buf); err != nil {
				return err
			}
		}
		return h.Close()
	})
	if row.Failed {
		return row
	}

	// Read phase: each rank scans its contiguous 1/P of the file back.
	// Reads are lazy — destinations are recorded piece by piece and the
	// bytes land on Fetch — so each piece targets its own slice of one
	// chunk-sized buffer and verification runs after the fetch. The file
	// system is not reset in between: its counters accumulate across both
	// worlds of the point, and the read phase's report carries the totals.
	row.Read = env.Run(p.Procs, fileBytes*env.Scale, func(c *mpi.Comm, _ *Tally) error {
		h, err := tcio.Open(c, name, tcio.ReadMode, tc)
		if err != nil {
			return err
		}
		// Open posts the preload and leaves every rank at its barrier's
		// instant; each rank's one segment lands at a host-order-assigned
		// point of the FS completion multiset, and its get's bytes leave then.
		// The extra barrier keeps this program the benchmark's scale
		// workload step for step.
		if err := c.Barrier(); err != nil {
			return err
		}
		chunk := fileBytes / int64(c.Size())
		base := int64(c.Rank()) * chunk
		buf := make([]byte, chunk)
		for off := int64(0); off < chunk; off += scalePieceBytes {
			if err := h.ReadAt(base+off, buf[off:off+scalePieceBytes]); err != nil {
				return err
			}
		}
		if err := h.Fetch(); err != nil {
			return err
		}
		want := func(off int64) byte { return scaleWant(off, c.Size()) }
		if err := checkBytes(c.Rank(), base, buf, want); err != nil {
			return err
		}
		return h.Close()
	})
	if !row.Read.Failed {
		p.VirtualNs = int64(row.Time + row.Read.Time)
		p.TraceEvents = int64(rec.Len())
	}
	return row
}

// scaleRing is the per-phase mailbox workout: the first round receives
// with an exact source, later rounds with AnySource (exactly one sender
// targets each rank per round, so the wildcard match is deterministic).
func scaleRing(c *mpi.Comm, round int) error {
	p := c.Size()
	if p < 2 {
		return nil
	}
	payload := []byte{byte(c.Rank()), byte(round)}
	if err := c.Send((c.Rank()+1)%p, round, payload); err != nil {
		return err
	}
	src := (c.Rank() - 1 + p) % p
	if round > 1 {
		src = mpi.AnySource
	}
	data, err := c.Recv(src, round)
	if err != nil {
		return err
	}
	c.Recycle(data)
	return nil
}

// scaleSweep drives the program at every (procs, GOMAXPROCS) cell. Points
// run sequentially; each restores GOMAXPROCS afterwards.
func scaleSweep(g *scaleGeometry) *Sweep {
	at := func(r *Row) *scalePoint { return r.Point.(*scalePoint) }
	hostInt := func(header, key string, v func(*scalePoint) int64) Column {
		return host(header, key, func(r *Row) any { return v(at(r)) }, nil)
	}
	return &Sweep{
		Name: "scale",
		Help: "sweep host wall-clock scalability (simulated ranks x GOMAXPROCS)",
		Flags: []Flag{
			{"scale-procs", "comma-separated rank counts for -scale", &g.Procs},
			{"scale-maxprocs", "comma-separated GOMAXPROCS settings for -scale", &g.GoMaxProcs},
		},
		Params: g,
		Points: func(bool) []any {
			return grid2(g.Procs, g.GoMaxProcs,
				func(procs, maxprocs int) any { return &scalePoint{Procs: procs, GoMaxProcs: maxprocs} })
		},
		Env: func(Options, any) EnvSpec { return EnvSpec{Scale: scaleByteScale} },
		Run: func(env *Env, pt any) ([]Row, error) {
			p := pt.(*scalePoint)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p.GoMaxProcs))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			row := runScalePoint(env, p)
			p.WallNs = time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&after)
			ops := int64(p.Procs) * scalePieces * 2 // write + read pieces
			p.NsPerOp = p.WallNs / ops
			p.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / ops
			p.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / ops
			row.Point = p
			return []Row{row}, nil
		},
		Tables: tables(Table{
			Title: fmt.Sprintf("Host scale: strided write+read, %d pieces x %d B per rank (wall-clock columns are host facts; virtual/count columns are deterministic)",
				scalePieces, scalePieceBytes),
			Columns: []Column{
				det("procs", "procs", func(r *Row) any { return at(r).Procs }),
				det("gomaxprocs", "gomaxprocs", func(r *Row) any { return at(r).GoMaxProcs }),
				host("wall", "wall_ns", func(r *Row) any { return at(r).WallNs },
					func(r *Row) string { return time.Duration(at(r).WallNs).Round(time.Millisecond).String() }),
				hostInt("ns/op", "ns_per_op", func(p *scalePoint) int64 { return p.NsPerOp }),
				hostInt("B/op", "b_per_op", func(p *scalePoint) int64 { return p.BytesPerOp }),
				hostInt("allocs/op", "allocs_per_op", func(p *scalePoint) int64 { return p.AllocsPerOp }),
				det("virtual-time", "virtual_ns", func(r *Row) any { return at(r).VirtualNs }),
				det("fs-writes", "fs_writes", func(r *Row) any { return r.Read.FS.Writes }),
				det("fs-reads", "fs_reads", func(r *Row) any { return r.Read.FS.Reads }),
				det("trace-events", "trace_events", func(r *Row) any { return at(r).TraceEvents }),
				colResult,
			},
		}),
	}
}

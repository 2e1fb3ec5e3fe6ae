package main

// scale-4096: the geometry of `tciobench -scale`, re-expressed against the
// layer APIs. Every rank writes 32 strided 256-byte pieces that fill
// exactly one 8 KiB level-2 segment owned by rank+1, with a ring
// Send/Recv and a barrier between the four write phases, then reads its
// contiguous 1/P of the file back. Simulated work per rank is trivial, so
// host time is the mpi runtime itself: collectives, mailboxes, window
// locks, goroutine scheduling.
//
// One segment per rank is deliberate: a rank's drain (and preload) is then
// a single file system request departing at the common post-barrier
// instant, so the shared OST queues see symmetric customers and the
// virtual makespan does not depend on host scheduling. That makes this
// workload's virtual time an exact-match canary.

import (
	"bytes"
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

const (
	scaleByteScale = 256
	scaleSegSize   = 8192
	scalePieces    = 32
	scalePiece     = scaleSegSize / scalePieces
	scalePhases    = 4
)

type scaleProg struct {
	procs int

	data, want []byte // procs * scaleSegSize: rank r's pieces, in piece order
}

func (s *scaleProg) geometry() string {
	return fmt.Sprintf("ranks=%d byte_scale=%d seg=%d pieces_per_rank=%d piece=%d write_phases=%d real_bytes=%d",
		s.procs, scaleByteScale, scaleSegSize, scalePieces, scalePiece, scalePhases, s.fileBytes())
}

func (s *scaleProg) fileBytes() int64 { return int64(s.procs) * scaleSegSize }

func (s *scaleProg) generate(seed int64) string {
	s.data = seededBytes(seed, 3, int(s.fileBytes()))
	s.want = s.data
	return sha256Hex(s.data)
}

func (s *scaleProg) corruptExpected() {
	s.want = bytes.Clone(s.data)
	s.want[len(s.want)/2] ^= 0x40
}

// pieces returns rank's 8 KiB of an image.
func (s *scaleProg) pieces(img []byte, rank int) []byte {
	return img[rank*scaleSegSize : (rank+1)*scaleSegSize]
}

func (s *scaleProg) rep(tr *tracer) repOut {
	machine, fs := newEnv(scaleByteScale)
	cfg := mpi.Config{Procs: s.procs, Machine: machine, FS: fs}
	tc := tcio.Config{SegmentSize: scaleSegSize, NumSegments: 1, Trace: tr.recorder()}
	simBytes := s.fileBytes() * scaleByteScale
	const name = "scale.dat"
	var out repOut

	wrep, err := runWorld(tr, "write", cfg, func(c *mpi.Comm, p *probe) error {
		p.begin("tcio", "open")
		h, err := tcio.Open(c, name, tcio.WriteMode, tc)
		p.end()
		if err != nil {
			return err
		}
		// Rank r fills the segment owned by rank r+1: every level-1 ship is
		// a genuine cross-rank put, and each owner's window lock has one
		// customer.
		base := int64((c.Rank()+1)%c.Size()) * scaleSegSize
		mine := s.pieces(s.data, c.Rank())
		f := p.fold("tcio", "writeat")
		for i := 0; i < scalePieces; i++ {
			if i > 0 && i%(scalePieces/scalePhases) == 0 {
				// Ring first, barrier second: the barrier's max collapses the
				// host-order-assigned arrivals before any rank shares a NIC
				// port again.
				if err := scaleRing(c, p, i/(scalePieces/scalePhases)); err != nil {
					return err
				}
				p.begin("mpi", "barrier")
				err := c.Barrier()
				p.end()
				if err != nil {
					return err
				}
			}
			m := f.enter()
			err := h.WriteAt(base+int64(i*scalePiece), mine[i*scalePiece:(i+1)*scalePiece])
			f.leave(m)
			if err != nil {
				return err
			}
		}
		p.begin("tcio", "close")
		err = h.Close()
		p.end()
		p.addTCIO(h.Stats())
		return err
	})
	out.write = phase("write", simBytes, wrep, err)
	out.peakMem = wrep.PeakMemory
	if err != nil {
		out.read = phaseOut{name: "read", simBytes: simBytes, err: fmt.Errorf("no file to read: %w", err)}
		return out
	}

	// The file system is not Reset between the phases: the canary value is
	// the one `tciobench -scale` prints, and that program keeps it warm.
	rrep, err := runWorld(tr, "read", cfg, func(c *mpi.Comm, p *probe) error {
		p.begin("tcio", "open")
		h, err := tcio.Open(c, name, tcio.ReadMode, tc)
		p.end()
		if err != nil {
			return err
		}
		// Open's preload leaves ranks at host-order-assigned points of the
		// file system's completion multiset; synchronize so the gets depart
		// symmetrically.
		p.begin("mpi", "barrier")
		err = c.Barrier()
		p.end()
		if err != nil {
			return err
		}
		base := int64(c.Rank()) * scaleSegSize
		buf := make([]byte, scaleSegSize)
		f := p.fold("tcio", "readat")
		for off := 0; off < scaleSegSize; off += scalePiece {
			m := f.enter()
			err := h.ReadAt(base+int64(off), buf[off:off+scalePiece])
			f.leave(m)
			if err != nil {
				return err
			}
		}
		p.begin("tcio", "fetch")
		err = h.Fetch()
		p.end()
		if err != nil {
			return err
		}
		// Segment r was written by rank r-1.
		if !bytes.Equal(buf, s.pieces(s.want, (c.Rank()-1+c.Size())%c.Size())) {
			return mismatch(c.Rank(), "segment")
		}
		p.begin("tcio", "close")
		err = h.Close()
		p.end()
		p.addTCIO(h.Stats())
		return err
	})
	out.read = phase("read", simBytes, rrep, err)
	out.peakMem = max(out.peakMem, rrep.PeakMemory)
	// The file system's counters ran on across both worlds.
	out.net, out.fs = addNet(wrep.Net, rrep.Net), rrep.FS
	return out
}

// scaleRing is the per-phase mailbox workout: round 1 receives from the
// exact source, later rounds from AnySource (one sender targets each rank
// per round, so the wildcard match is deterministic).
func scaleRing(c *mpi.Comm, p *probe, round int) error {
	n := c.Size()
	if n < 2 {
		return nil
	}
	p.begin("mpi", "send")
	err := c.Send((c.Rank()+1)%n, round, []byte{byte(c.Rank()), byte(round)})
	p.end()
	if err != nil {
		return err
	}
	src := (c.Rank() - 1 + n) % n
	if round > 1 {
		src = mpi.AnySource
	}
	p.begin("mpi", "recv")
	data, err := c.Recv(src, round)
	p.end()
	if err != nil {
		return err
	}
	c.Recycle(data)
	return nil
}

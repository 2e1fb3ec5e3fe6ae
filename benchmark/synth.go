package main

// synth-tcio and synth-ocio: the paper's synthetic benchmark (Table II).
// Each of P ranks holds an int array and a double array of LENarray
// elements and writes them interleaved round-robin, one element per
// access: rank p's i-th (int, double) pair lands at file block i*P + p.
// synth-tcio is Program 3 (POSIX-style tcio calls), synth-ocio is
// Program 2 (combine buffer, file view, one collective call).

import (
	"bytes"
	"fmt"

	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/simtime"
	"github.com/tcio/tcio/internal/tcio"
)

// synthWidths are the element sizes of the two arrays: int, double.
var synthWidths = [2]int{4, 8}

const synthBlock = 4 + 8 // one rank's bytes per iteration

// combineCPU is Program 2's application-side cost per piece moved through
// its combine buffer, in simulated time per real piece.
const combineCPU = 150 * simtime.Nanosecond

type synth struct {
	ocio    bool
	procs   int
	lenReal int   // elements per array per rank, materialized
	scale   int64 // simulated bytes per real byte

	data, want []byte // procs * lenReal * synthBlock: per rank, ints then doubles
}

func (s *synth) geometry() string {
	return fmt.Sprintf("ranks=%d len_real=%d len_sim=%d byte_scale=%d size_access=1 types=int,double real_bytes=%d",
		s.procs, s.lenReal, int64(s.lenReal)*s.scale, s.scale, s.fileBytes())
}

func (s *synth) fileBytes() int64 { return int64(s.procs) * int64(s.lenReal) * synthBlock }

func (s *synth) generate(seed int64) string {
	s.data = seededBytes(seed, 1, int(s.fileBytes()))
	s.want = s.data
	return sha256Hex(s.data)
}

func (s *synth) corruptExpected() {
	s.want = bytes.Clone(s.data)
	s.want[len(s.want)/2] ^= 0x40
}

// arrays slices rank's two arrays out of a flat image.
func (s *synth) arrays(img []byte, rank int) [2][]byte {
	per := s.lenReal * synthBlock
	base := img[rank*per : (rank+1)*per]
	return [2][]byte{base[:s.lenReal*4], base[s.lenReal*4:]}
}

func (s *synth) name() string {
	if s.ocio {
		return "synth-ocio.dat"
	}
	return "synth-tcio.dat"
}

func (s *synth) rep(tr *tracer) repOut {
	machine, fs := newEnv(s.scale)
	cfg := mpi.Config{Procs: s.procs, Machine: machine, FS: fs, EnforceMemory: true}
	simBytes := s.fileBytes() * s.scale
	var out repOut

	wrep, err := runWorld(tr, "write", cfg, func(c *mpi.Comm, p *probe) error {
		arrays := s.arrays(s.data, c.Rank())
		// The application's own arrays count toward its memory share.
		app := machine.Scale(int64(s.lenReal) * synthBlock)
		if err := c.Reserve(app); err != nil {
			return err
		}
		defer c.Release(app)
		if s.ocio {
			return s.ocioWrite(c, p, arrays)
		}
		return s.tcioPhase(c, p, tr, tcio.WriteMode, arrays)
	})
	out.write = phase("write", simBytes, wrep, err)
	out.peakMem = wrep.PeakMemory
	if err != nil {
		out.read = phaseOut{name: "read", simBytes: simBytes, err: fmt.Errorf("no file to read: %w", err)}
		return out
	}

	fs.Reset()
	rrep, err := runWorld(tr, "read", cfg, func(c *mpi.Comm, p *probe) error {
		var arrays [2][]byte
		for j, w := range synthWidths {
			a, err := c.Malloc(int64(s.lenReal * w))
			if err != nil {
				return err
			}
			defer c.Free(a)
			arrays[j] = a
		}
		var err error
		if s.ocio {
			err = s.ocioRead(c, p, arrays)
		} else {
			err = s.tcioPhase(c, p, tr, tcio.ReadMode, arrays)
		}
		if err != nil {
			return err
		}
		want := s.arrays(s.want, c.Rank())
		for j := range arrays {
			if !bytes.Equal(arrays[j], want[j]) {
				return mismatch(c.Rank(), fmt.Sprintf("array %d", j))
			}
		}
		return nil
	})
	out.read = phase("read", simBytes, rrep, err)
	out.peakMem = max(out.peakMem, rrep.PeakMemory)
	out.net, out.fs = addNet(wrep.Net, rrep.Net), addFS(wrep.FS, rrep.FS)
	return out
}

// tcioConfig covers the file exactly: one stripe-sized segment per stripe,
// dealt round-robin, so each rank's level-2 window is file size / P.
func (s *synth) tcioConfig(c *mpi.Comm, tr *tracer) tcio.Config {
	seg := c.FS().Config().StripeSize
	per := (s.fileBytes() + int64(s.procs)*seg - 1) / (int64(s.procs) * seg)
	return tcio.Config{SegmentSize: seg, NumSegments: int(per), Trace: tr.recorder()}
}

// tcioPhase is Program 3, either direction: no combine buffer, no file
// view, one POSIX-style call per piece where it belongs. Reads are lazy:
// Close fetches whatever is still pending.
func (s *synth) tcioPhase(c *mpi.Comm, p *probe, tr *tracer, mode tcio.Mode, arrays [2][]byte) error {
	p.begin("tcio", "open")
	h, err := tcio.Open(c, s.name(), mode, s.tcioConfig(c, tr))
	p.end()
	if err != nil {
		return err
	}
	kind, call := "writeat", h.WriteAt
	if mode == tcio.ReadMode {
		kind, call = "readat", h.ReadAt
	}
	f := p.fold("tcio", kind)
	stride := int64(synthBlock) * int64(s.procs)
	pos := int64(c.Rank()) * synthBlock
	for i := 0; i < s.lenReal; i++ {
		at := pos
		for j, w := range synthWidths {
			m := f.enter()
			err := call(at, arrays[j][i*w:(i+1)*w])
			f.leave(m)
			if err != nil {
				return err
			}
			at += int64(w)
		}
		pos += stride
	}
	p.begin("tcio", "close")
	err = h.Close()
	p.end()
	p.addTCIO(h.Stats())
	return err
}

// view installs Program 2's file view: etype one combined block, filetype
// one block every P blocks.
func (s *synth) view(c *mpi.Comm, p *probe, h *mpiio.File) error {
	p.begin("mpiio", "setview")
	defer p.end()
	etype, err := datatype.Contiguous(synthBlock, datatype.Byte)
	if err != nil {
		return err
	}
	ftype, err := datatype.Vector(s.lenReal, 1, c.Size(), etype)
	if err != nil {
		return err
	}
	ftype, err = datatype.Resized(ftype, int64(s.lenReal*c.Size())*etype.Extent())
	if err != nil {
		return err
	}
	return h.SetView(int64(c.Rank())*synthBlock, etype, ftype)
}

// chargeCombine charges Program 2's combine (or scatter) loop.
func (s *synth) chargeCombine(c *mpi.Comm, p *probe) {
	p.begin("app", "compute")
	c.Compute(combineCPU * simtime.Duration(s.lenReal*len(synthWidths)) * simtime.Duration(s.scale))
	p.end()
}

func (s *synth) ocioWrite(c *mpi.Comm, p *probe, arrays [2][]byte) error {
	buffer, err := c.Malloc(int64(s.lenReal) * synthBlock)
	if err != nil {
		return err
	}
	defer c.Free(buffer)
	at := 0
	for i := 0; i < s.lenReal; i++ {
		for j, w := range synthWidths {
			at += copy(buffer[at:], arrays[j][i*w:(i+1)*w])
		}
	}
	s.chargeCombine(c, p)
	p.begin("mpiio", "open")
	h, err := mpiio.Open(c, s.name())
	p.end()
	if err != nil {
		return err
	}
	if err := s.view(c, p, h); err != nil {
		return err
	}
	p.begin("mpiio", "writeall")
	err = h.WriteAll(buffer)
	p.end()
	if err != nil {
		return err
	}
	p.addRetries(h.Retries())
	return h.Close()
}

func (s *synth) ocioRead(c *mpi.Comm, p *probe, arrays [2][]byte) error {
	p.begin("mpiio", "open")
	h, err := mpiio.Open(c, s.name())
	p.end()
	if err != nil {
		return err
	}
	if err := s.view(c, p, h); err != nil {
		return err
	}
	// The collective read returns the combine buffer, which counts
	// against the rank's memory share like the one the writer allocated.
	combine := c.Machine().Scale(int64(s.lenReal) * synthBlock)
	if err := c.Reserve(combine); err != nil {
		return err
	}
	defer c.Release(combine)
	p.begin("mpiio", "readall")
	buffer, err := h.ReadAll(int64(s.lenReal) * synthBlock)
	p.end()
	if err != nil {
		return err
	}
	p.addRetries(h.Retries())
	if err := h.Close(); err != nil {
		return err
	}
	at := 0
	for i := 0; i < s.lenReal; i++ {
		for j, w := range synthWidths {
			at += copy(arrays[j][i*w:(i+1)*w], buffer[at:])
		}
	}
	s.chargeCombine(c, p)
	return nil
}

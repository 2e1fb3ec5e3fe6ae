package bench

// This file declares the overlap sweep: the TCIO workload on a multi-OST
// stripe, written and then read back. The write side is the paper's
// interleaved workload in barrier-separated phases, drained once at Close;
// the read side is a contiguous-partition sequential read (each rank scans
// its own 1/P of the file, so every segment is demand-populated by exactly
// one, deterministic, rank, and a fetch posts its batch's segments at once).
// Byte contents are cross-checked against the workload's ground truth on
// both sides.

import (
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// defaultOverlap writes, then reads, a 7-way striped file with 16
// processes.
func defaultOverlap() *synthGeometry {
	return &synthGeometry{Procs: 16, StripeCount: 7, LenSim: 4 << 20}
}

// overlapSetting is one row's side: the write or the read.
type overlapSetting struct {
	Write bool
}

// overlapPhases is the number of barrier-separated phases of the write
// workload's timestep loop.
const overlapPhases = 8

// fileByte computes the expected byte at a file offset straight from the
// workload definition — the ground truth the sequential readers verify
// against (block k*P+p belongs to process p's k-th iteration).
func fileByte(cfg SyntheticConfig, off int64) byte {
	blockSize := cfg.blockSize()
	block := off / blockSize
	p := int(block % int64(cfg.Procs))
	iter := int(block / int64(cfg.Procs))
	rem := off % blockSize
	for j, typ := range cfg.TypeArray {
		width := typ.Size()
		span := width * int64(cfg.SizeAccess)
		if rem < span {
			e := iter*cfg.SizeAccess + int(rem/width)
			return element(p, j, e, int(rem%width))
		}
		rem -= span
	}
	panic("bench: offset outside block") // unreachable: rem < blockSize
}

// expectedImage renders the whole expected file image from fileByte.
func expectedImage(cfg SyntheticConfig) []byte {
	img := make([]byte, cfg.FileBytes())
	for off := range img {
		img[off] = fileByte(cfg, int64(off))
	}
	return img
}

// overlapWrite runs the interleaved write workload and cross-checks the file
// image against the ground truth.
func overlapWrite(env *Env, cfg SyntheticConfig) PhaseResult {
	env.FS.Reset()
	pr := env.Run(cfg.Procs, cfg.FileBytes()*env.Scale, func(c *mpi.Comm, t *Tally) error {
		arrays, err := makeArrays(c, cfg, true)
		defer freeArrays(c, arrays)
		if err != nil {
			return err
		}
		handle, err := tcio.Open(c, cfg.FileName, tcio.WriteMode, tcioConfigFor(c, cfg))
		if err != nil {
			return err
		}
		// Timestep loop: the interleaved write pattern of Program 3, split
		// into phases separated by barriers, like a computational code
		// writing results as it goes.
		phase, iter := max(cfg.iters()/overlapPhases, 1), 0
		if err := eachPiece(c, cfg, arrays, func(i int, pos int64, piece []byte) error {
			if i != iter && i%phase == 0 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			iter = i
			return handle.WriteAt(pos, piece)
		}); err != nil {
			return err
		}
		cerr := handle.Close()
		t.TCIO(handle.Stats())
		return cerr
	})
	env.CheckImage(&pr, cfg.FileName, expectedImage(cfg))
	return pr
}

// overlapRead runs the contiguous-partition sequential read, demand
// populated, against the already-written file.
func overlapRead(env *Env, cfg SyntheticConfig) PhaseResult {
	env.FS.Reset()
	return env.Run(cfg.Procs, cfg.FileBytes()*env.Scale, func(c *mpi.Comm, t *Tally) error {
		tc := tcioConfigFor(c, cfg)
		tc.DemandPopulate = true
		handle, err := tcio.Open(c, cfg.FileName, tcio.ReadMode, tc)
		if err != nil {
			return err
		}
		chunk := cfg.FileBytes() / int64(c.Size())
		base := int64(c.Rank()) * chunk
		buf, err := c.Malloc(chunk)
		if err != nil {
			return err
		}
		defer c.Free(buf)
		piece := cfg.blockSize()
		for off := int64(0); off < chunk; off += piece {
			n := min(piece, chunk-off)
			if err := handle.ReadAt(base+off, buf[off:off+n]); err != nil {
				return err
			}
		}
		if err := handle.Close(); err != nil {
			return err
		}
		t.TCIO(handle.Stats())
		return checkBytes(c.Rank(), base, buf, func(off int64) byte { return fileByte(cfg, off) })
	})
}

// overlapSweep tabulates both sides: the synchronous write, drained at
// Close, and the demand read, every fetch batch's populations posted at
// once.
//
// The projection leaves out virtual times: they depend on scheduler
// interleaving; the request stream's identity (and hence every count it
// keeps) does not.
func overlapSweep(g *synthGeometry) *Sweep {
	at := func(r *Row) overlapSetting { return r.Point.(overlapSetting) }
	phase := det("phase", "phase", func(r *Row) any { return pick(at(r).Write, "write", "read") })
	return &Sweep{
		Name:   "overlap",
		Help:   "write synchronously over a multi-OST stripe, then a demand read",
		InAll:  true,
		Params: g,
		// Each point runs in its own environment; the read point writes the
		// file the same way first, then reads it.
		Points: func(bool) []any {
			return []any{overlapSetting{Write: true}, overlapSetting{}}
		},
		Env: g.env,
		Run: func(env *Env, pt any) ([]Row, error) {
			s := pt.(overlapSetting)
			cfg := g.config(env, MethodTCIO, "overlap")
			if s.Write {
				return []Row{{Point: s, PhaseResult: overlapWrite(env, cfg)}}, nil
			}
			if pr := overlapWrite(env, cfg); pr.Failed {
				return nil, fmt.Errorf("read-side write failed: %s", pr.FailReason)
			}
			return []Row{{Point: s, PhaseResult: overlapRead(env, cfg)}}, nil
		},
		Tables: func(Options) []Table {
			shape := fmt.Sprintf("%d processes, stripe over %d OSTs", g.Procs, g.StripeCount)
			return []Table{{
				Title: "Overlap: synchronous write, " + shape,
				Where: func(r *Row) bool { return at(r).Write },
				Columns: []Column{
					colTime.as("write-time"), colMBs.as("write-MB/s"),
					colFSWrites, colResult,
				},
			}, {
				Title: "Overlap: sequential demand read, " + shape,
				Where: func(r *Row) bool { return !at(r).Write },
				Columns: []Column{
					colTime.as("read-time"), colMBs.as("read-MB/s"),
					colPopulations, colFSReads, colResult,
				},
			}}
		},
		Projection: &Table{
			Title: fmt.Sprintf("Overlap chaos: %d processes", g.Procs),
			Columns: []Column{
				phase,
				det("setting", "", func(r *Row) any { return pick(at(r).Write, "sync", "demand") }),
				colInjected, colFSRetries, colFSWrites, colFSReads,
				colPopulations, colAllocRetries, colResult,
			},
		},
		JSON: []Column{phase, colFSRetries},
	}
}

package bench

// This file declares the overlap sweep: the TCIO workload run on a
// multi-OST stripe while the write-behind pipeline varies, plus a demand
// read. The write side is the paper's interleaved workload with
// tcio.Config.WriteBehind on against the synchronous baseline;
// the read side is a contiguous-partition sequential read (each rank scans
// its own 1/P of the file, so every segment is demand-populated by exactly
// one, deterministic, rank, and a fetch posts its batch's segments at once).
// Byte contents are cross-checked against the workload's ground truth at
// every setting; only the virtual timing is allowed to change.

import (
	"fmt"

	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/tcio"
)

// defaultOverlap writes with write-behind off and on, then reads, over a
// 7-way striped file with 16 processes.
func defaultOverlap() *synthGeometry {
	return &synthGeometry{Procs: 16, StripeCount: 7, LenSim: 4 << 20}
}

// overlapSetting is one row's setting: write-behind off or on on the write
// side; the read side is one row.
type overlapSetting struct {
	Write       bool
	WriteBehind bool
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

// overlapWrite runs the interleaved write workload with write-behind off or
// on and cross-checks the file image against the ground truth.
func overlapWrite(env *Env, cfg SyntheticConfig, writeBehind bool) PhaseResult {
	env.FS.Reset()
	pr := env.Run(cfg.Procs, cfg.FileBytes()*env.Scale, func(c *mpi.Comm, t *Tally) error {
		arrays, err := makeArrays(c, cfg, true)
		defer freeArrays(c, arrays)
		if err != nil {
			return err
		}
		tc := tcioConfigFor(c, cfg)
		tc.WriteBehind = writeBehind
		handle, err := tcio.Open(c, cfg.FileName, tcio.WriteMode, tc)
		if err != nil {
			return err
		}
		// Timestep loop: the interleaved write pattern of Program 3, split
		// into phases separated by barriers, like a computational code
		// writing results as it goes. The synchronization points are where
		// write-behind earns its keep — segments finished in earlier phases
		// drain in the background while later phases still compute.
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

// overlapSweep tabulates both sides. The write table compares write-behind
// against the synchronous baseline; the read table is the demand read,
// every fetch batch's populations posted at once.
//
// The projection leaves out virtual times, eager-drain tallies, and overlap
// savings: they depend on scheduler interleaving; the request stream's
// identity (and hence every count it keeps) does not. Both write settings
// issue a provably bit-identical file system request identity.
func overlapSweep(g *synthGeometry) *Sweep {
	at := func(r *Row) overlapSetting { return r.Point.(overlapSetting) }
	phase := det("phase", "phase", func(r *Row) any { return pick(at(r).Write, "write", "read") })
	return &Sweep{
		Name:   "overlap",
		Help:   "sweep write-behind overlap settings, then a demand read",
		InAll:  true,
		Params: g,
		// Each point runs in its own environment; the read reads one file
		// written with the synchronous baseline.
		Points: func(bool) []any {
			return []any{overlapSetting{Write: true}, overlapSetting{Write: true, WriteBehind: true}, overlapSetting{}}
		},
		Env: g.env,
		Run: func(env *Env, pt any) ([]Row, error) {
			s := pt.(overlapSetting)
			cfg := g.config(env, MethodTCIO, "overlap")
			if s.Write {
				return []Row{{Point: s, PhaseResult: overlapWrite(env, cfg, s.WriteBehind)}}, nil
			}
			if pr := overlapWrite(env, cfg, false); pr.Failed {
				return nil, fmt.Errorf("read-side write failed: %s", pr.FailReason)
			}
			return []Row{{Point: s, PhaseResult: overlapRead(env, cfg)}}, nil
		},
		Tables: func(Options) []Table {
			shape := fmt.Sprintf("%d processes, stripe over %d OSTs", g.Procs, g.StripeCount)
			return []Table{{
				Title: "Overlap: eager write-behind, " + shape,
				Where: func(r *Row) bool { return at(r).Write },
				Columns: []Column{
					{Header: "write-behind", Key: "write_behind", Det: true,
						Value: func(r *Row) any { return at(r).WriteBehind },
						Cell:  func(r *Row) string { return pick(at(r).WriteBehind, "on", "off") }},
					colTime.as("write-time"), colMBs.as("write-MB/s"),
					host("eager-drains", "eager_drains", func(r *Row) any { return r.TCIO.EagerDrains }, nil),
					host("eager-writes", "eager_write_requests", func(r *Row) any { return r.TCIO.EagerWrites }, nil),
					host("residue-reqs", "flush_residue_requests", func(r *Row) any { return r.TCIO.FlushResidue }, nil),
					host("overlap-saved", "overlap_saved_ns", func(r *Row) any { return r.TCIO.OverlapSaved }, nil),
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
				det("setting", "", func(r *Row) any {
					return pick(at(r).Write, pick(at(r).WriteBehind, "write-behind=1", "write-behind=0"), "demand")
				}),
				colInjected, colFSRetries, colFSWrites, colFSReads,
				colPopulations, colAllocRetries, colResult,
			},
		},
		JSON: []Column{phase, colFSRetries},
	}
}

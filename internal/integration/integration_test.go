// Package integration holds cross-stack tests: scenarios that exercise
// TCIO, OCIO, vanilla MPI-IO, the ART application, and the simulated
// machine together, verifying end-to-end agreement byte for byte.
package integration

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tcio/tcio/internal/art"
	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/delegate"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// sharedFS builds a small-stripe file system shared across worlds.
func sharedFS() *pfs.FileSystem {
	cfg := pfs.DefaultConfig()
	cfg.StripeSize = 1 << 10
	cfg.ReadAhead = 1 << 10
	return pfs.New(cfg)
}

func run(t *testing.T, fs *pfs.FileSystem, procs int, fn func(*mpi.Comm) error) {
	t.Helper()
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, fn)
	if err != nil {
		t.Fatal(err)
	}
}

// TestWriteTCIOReadOCIO writes the interleaved pattern through TCIO and
// reads it back through an OCIO collective read with a file view — the
// strongest cross-stack agreement check.
func TestWriteTCIOReadOCIO(t *testing.T) {
	const procs, pairs = 4, 32
	fs := sharedFS()

	run(t, fs, procs, func(c *mpi.Comm) error {
		f, err := tcio.Open(c, "cross", tcio.WriteMode, tcio.Config{SegmentSize: 128, NumSegments: 8})
		if err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			pos := int64(c.Rank()*12 + i*12*c.Size())
			var buf [12]byte
			binary.LittleEndian.PutUint32(buf[:4], uint32(c.Rank()*100+i))
			binary.LittleEndian.PutUint64(buf[4:], uint64(c.Rank()*900+i))
			if err := f.WriteAt(pos, buf[:]); err != nil {
				return err
			}
		}
		return f.Close()
	})

	run(t, fs, procs, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, "cross")
		if err != nil {
			return err
		}
		etype, err := datatype.Struct([]int{1, 1}, []int64{0, 4}, []datatype.Type{datatype.Int, datatype.Double})
		if err != nil {
			return err
		}
		ft, err := datatype.Vector(pairs, 1, c.Size(), etype)
		if err != nil {
			return err
		}
		ft, err = datatype.Resized(ft, int64(pairs*c.Size())*etype.Extent())
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*12, etype, ft); err != nil {
			return err
		}
		got, err := f.ReadAll(int64(pairs * 12))
		if err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			iv := binary.LittleEndian.Uint32(got[i*12:])
			dv := binary.LittleEndian.Uint64(got[i*12+4:])
			if iv != uint32(c.Rank()*100+i) || dv != uint64(c.Rank()*900+i) {
				return fmt.Errorf("rank %d pair %d = (%d,%d)", c.Rank(), i, iv, dv)
			}
		}
		return f.Close()
	})
}

// TestWriteOCIOReadTCIO is the reverse direction.
func TestWriteOCIOReadTCIO(t *testing.T) {
	const procs = 4
	const perRank = 256
	fs := sharedFS()

	run(t, fs, procs, func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, "cross2")
		if err != nil {
			return err
		}
		// Contiguous per-rank regions through a view displacement.
		if err := f.SetView(int64(c.Rank()*perRank), datatype.Byte, datatype.Byte); err != nil {
			return err
		}
		data := bytes.Repeat([]byte{byte(c.Rank() + 1)}, perRank)
		return f.WriteAll(data)
	})

	run(t, fs, procs, func(c *mpi.Comm) error {
		f, err := tcio.Open(c, "cross2", tcio.ReadMode, tcio.Config{SegmentSize: 128, NumSegments: 4})
		if err != nil {
			return err
		}
		dst := make([]byte, perRank)
		if err := f.ReadAt(int64(c.Rank()*perRank), dst); err != nil {
			return err
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		for i, b := range dst {
			if b != byte(c.Rank()+1) {
				return fmt.Errorf("rank %d byte %d = %d", c.Rank(), i, b)
			}
		}
		return f.Close()
	})
}

// TestRestartWithDifferentRankCount checkpoints ART at one scale and
// restarts at another — the round-robin re-dealing must reproduce every
// tree exactly.
func TestRestartWithDifferentRankCount(t *testing.T) {
	const trees = 24
	fs := sharedFS()

	run(t, fs, 4, func(c *mpi.Comm) error {
		mine := art.GenerateForRank(trees, 2, c.Size(), c.Rank(), 42)
		return art.Dump(c, art.LibTCIO, "rescale", mine, trees, 512)
	})

	run(t, fs, 8, func(c *mpi.Comm) error {
		want := art.GenerateForRank(trees, 2, c.Size(), c.Rank(), 42)
		got, err := art.Restore(c, art.LibTCIO, "rescale")
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("rank %d: restored %d trees, want %d", c.Rank(), len(got), len(want))
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				return fmt.Errorf("tree %d differs after rescaled restart", want[i].ID)
			}
		}
		return nil
	})
}

// TestMixedSeekWriteSequences runs randomized sequences of Write, WriteAt
// and Seek through TCIO and checks the resulting file against a plain
// byte-slice reference.
func TestMixedSeekWriteSequences(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		const size = 2048
		rng := rand.New(rand.NewSource(seed))
		ref := make([]byte, size)
		type op struct {
			seek    bool
			off     int64
			payload []byte
		}
		// Single-rank plan: arbitrary overwrites are order-dependent, so
		// only one rank writes.
		var plan []op
		pos := int64(0)
		for i := 0; i < 60; i++ {
			switch rng.Intn(3) {
			case 0: // Seek
				pos = int64(rng.Intn(size - 64))
				plan = append(plan, op{seek: true, off: pos})
			default: // sequential Write at pos
				n := rng.Intn(48) + 1
				if pos+int64(n) > size {
					pos = 0
					plan = append(plan, op{seek: true, off: 0})
				}
				p := make([]byte, n)
				rng.Read(p)
				copy(ref[pos:], p)
				plan = append(plan, op{off: pos, payload: p})
				pos += int64(n)
			}
		}
		fs := sharedFS()
		name := fmt.Sprintf("mixed%d", seed)
		run(t, fs, 1, func(c *mpi.Comm) error {
			f, err := tcio.Open(c, name, tcio.WriteMode, tcio.Config{SegmentSize: 256, NumSegments: 8})
			if err != nil {
				return err
			}
			for _, o := range plan {
				if o.seek {
					if _, err := f.Seek(o.off, 0); err != nil {
						return err
					}
					continue
				}
				if err := f.Write(o.payload); err != nil {
					return err
				}
			}
			return f.Close()
		})
		snap := fs.Open(name).Snapshot()
		if len(snap) < len(ref) {
			snap = append(snap, make([]byte, len(ref)-len(snap))...)
		}
		if !bytes.Equal(snap, ref) {
			t.Fatalf("seed %d: mixed sequence diverged from reference", seed)
		}
	}
}

// TestOOMAbortsCleanly injects an out-of-memory failure into one rank's
// collective write and checks that the whole world terminates with the
// right error instead of deadlocking.
func TestOOMAbortsCleanly(t *testing.T) {
	m := cluster.Lonestar()
	m.ByteScale = 1 << 20
	fscfg := pfs.DefaultConfig()
	fscfg.ByteScale = m.ByteScale
	fscfg.StripeSize = 1
	_, err := mpi.Run(mpi.Config{Procs: 12, Machine: m, FS: pfs.New(fscfg), EnforceMemory: true},
		func(c *mpi.Comm) error {
			f, err := mpiio.Open(c, "oom")
			if err != nil {
				return err
			}
			if err := f.SeekTo(int64(c.Rank()) * 4096); err != nil {
				return err
			}
			// 4 KiB real = 4 GiB simulated per aggregator domain: boom.
			return f.WriteAll(make([]byte, 4096))
		})
	if err == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(err, cluster.ErrOutOfMemory) && !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestConcurrentTCIOAndVanillaFiles runs a TCIO session and independent
// vanilla writes against different files in the same world.
func TestConcurrentTCIOAndVanillaFiles(t *testing.T) {
	fs := sharedFS()
	run(t, fs, 4, func(c *mpi.Comm) error {
		tf, err := tcio.Open(c, "t.dat", tcio.WriteMode, tcio.Config{SegmentSize: 128, NumSegments: 4})
		if err != nil {
			return err
		}
		vf, err := mpiio.Open(c, "v.dat")
		if err != nil {
			return err
		}
		for i := 0; i < 8; i++ {
			off := int64(c.Rank()*8 + i)
			if err := tf.WriteAt(off, []byte{byte(c.Rank() + 1)}); err != nil {
				return err
			}
			if err := vf.WriteAt(off, []byte{byte(c.Rank() + 1)}); err != nil {
				return err
			}
		}
		if err := tf.Close(); err != nil {
			return err
		}
		if err := vf.Close(); err != nil {
			return err
		}
		return c.Barrier()
	})
	a := fs.Open("t.dat").Snapshot()
	b := fs.Open("v.dat").Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatalf("TCIO and vanilla files differ:\n%v\n%v", a, b)
	}
}

// TestOverlappingWritersDrainDisjointBatches: a posted write batch must not
// touch a byte twice (storage.ErrOverlappingBatch), and no application
// pattern can make a drain hand one over — neighbouring ranks write
// overlapping ranges and rewrite them across a flush, and each of the three
// drains (tcio's final drain, the journal append, the delegation server's
// epoch drain) still posts coalesced, disjoint lists.
func TestOverlappingWritersDrainDisjointBatches(t *testing.T) {
	const clients, span = 4, 96 // rank r writes [48r, 48r+96): half overlaps rank r+1
	type file interface {
		WriteAt(int64, []byte) error
		Flush() error
		Close() error
	}
	program := func(rank int, f file) error {
		for round := 0; round < 2; round++ {
			data := bytes.Repeat([]byte{byte(16*round + rank + 1)}, span)
			if err := f.WriteAt(int64(rank)*span/2, data[:span/3]); err != nil {
				return err
			}
			if err := f.WriteAt(int64(rank)*span/2+span/3, data[span/3:]); err != nil {
				return err
			}
			if err := f.Flush(); err != nil {
				return err
			}
		}
		return f.Close()
	}
	for _, tc := range []struct {
		name    string
		cfg     tcio.Config
		servers int
	}{
		{name: "drain", cfg: tcio.Config{SegmentSize: 64, NumSegments: 4}},
		{name: "journal", cfg: tcio.Config{SegmentSize: 64, NumSegments: 4, Journal: true}},
		{name: "delegate", cfg: tcio.Config{SegmentSize: 64, NumSegments: 4}, servers: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := sharedFS()
			_, err := mpi.Run(mpi.Config{Procs: clients + tc.servers, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
				if tc.servers == 0 {
					f, err := tcio.Open(c, "overlap", tcio.WriteMode, tc.cfg)
					if err != nil {
						return err
					}
					return program(c.Rank(), f)
				}
				return delegate.Run(c, delegate.Config{ServerRanks: tc.servers, TCIO: tc.cfg}, func(tier *delegate.Tier) error {
					f, err := tier.Open("overlap", tcio.WriteMode)
					if err != nil {
						return err
					}
					return program(tier.ClientIndex(), f)
				})
			})
			if err != nil {
				t.Fatalf("overlapping writers: %v", err)
			}
			if got, want := fs.Open("overlap").Size(), int64(clients-1)*span/2+span; got != want {
				t.Fatalf("file is %d bytes, want %d", got, want)
			}
		})
	}
}

package integration

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/mpiio"
	"github.com/tcio/tcio/internal/pfs"
	"github.com/tcio/tcio/internal/tcio"
)

// The property: any random plan of interleaved typed writes produces
// byte-identical files whether issued through TCIO (WriteTyped), OCIO
// (collective WriteAll), or the POSIX-style reference (independent
// mpiio.WriteAt) — and TCIO's lazy typed reads return exactly what the
// reference wrote.

const (
	propProcs     = 4
	propBlocks    = 8  // typed records per rank
	propBlockSize = 48 // bytes per record; divisible by every basic width
)

// propOp is one typed record in a rank's plan.
type propOp struct {
	typ  datatype.Type
	data []byte // packed payload, propBlockSize bytes
}

// propPlan derives a deterministic per-rank op list from the seed. Basic
// types have extent == size, so the packed payload doubles as the typed
// memory buffer.
func propPlan(seed int64) [][]propOp {
	rng := rand.New(rand.NewSource(seed))
	basics := []datatype.Type{datatype.Byte, datatype.Short, datatype.Int, datatype.Double}
	plan := make([][]propOp, propProcs)
	for r := range plan {
		plan[r] = make([]propOp, propBlocks)
		for k := range plan[r] {
			data := make([]byte, propBlockSize)
			rng.Read(data)
			plan[r][k] = propOp{typ: basics[rng.Intn(len(basics))], data: data}
		}
	}
	return plan
}

// propExpected assembles the whole-file ground truth of a plan: rank r's
// k-th record lands at block k*P + r.
func propExpected(plan [][]propOp) []byte {
	out := make([]byte, propProcs*propBlocks*propBlockSize)
	for r, ops := range plan {
		for k, op := range ops {
			pos := (k*propProcs + r) * propBlockSize
			copy(out[pos:pos+propBlockSize], op.data)
		}
	}
	return out
}

func propPos(rank, k int) int64 { return int64((k*propProcs + rank) * propBlockSize) }

// writeTCIO runs the plan through TCIO's typed write path.
func writeTCIO(plan [][]propOp) (*mpiiFS, error) {
	fs := newMpiiFS()
	err := fs.run(func(c *mpi.Comm) error {
		f, err := tcio.Open(c, "prop", tcio.WriteMode, tcio.Config{SegmentSize: 256, NumSegments: 8})
		if err != nil {
			return err
		}
		for k, op := range plan[c.Rank()] {
			if _, err := f.Seek(propPos(c.Rank(), k), 0); err != nil {
				return err
			}
			count := propBlockSize / int(op.typ.Size())
			if err := f.WriteTyped(op.data, count, op.typ); err != nil {
				return err
			}
		}
		return f.Close()
	})
	return fs, err
}

// writeOCIO runs the plan through OCIO: one collective write per record
// round, every rank contributing its interleaved block.
func writeOCIO(plan [][]propOp) (*mpiiFS, error) {
	fs := newMpiiFS()
	err := fs.run(func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, "prop")
		if err != nil {
			return err
		}
		for k, op := range plan[c.Rank()] {
			if err := f.SeekTo(propPos(c.Rank(), k)); err != nil {
				return err
			}
			if err := f.WriteAll(op.data); err != nil {
				return err
			}
		}
		return f.Close()
	})
	return fs, err
}

// writePOSIX runs the plan through the independent per-piece reference.
func writePOSIX(plan [][]propOp) (*mpiiFS, error) {
	fs := newMpiiFS()
	err := fs.run(func(c *mpi.Comm) error {
		f, err := mpiio.Open(c, "prop")
		if err != nil {
			return err
		}
		for k, op := range plan[c.Rank()] {
			if err := f.WriteAt(propPos(c.Rank(), k), op.data); err != nil {
				return err
			}
		}
		return f.Close()
	})
	return fs, err
}

// readTypedTCIO reads every record of the plan back through ReadTyped and
// checks it against the plan.
func readTypedTCIO(fs *mpiiFS, plan [][]propOp) error {
	return fs.run(func(c *mpi.Comm) error {
		f, err := tcio.Open(c, "prop", tcio.ReadMode, tcio.Config{SegmentSize: 256, NumSegments: 8})
		if err != nil {
			return err
		}
		ops := plan[c.Rank()]
		got := make([][]byte, len(ops))
		for k, op := range ops {
			got[k] = make([]byte, propBlockSize)
			if _, err := f.Seek(propPos(c.Rank(), k), 0); err != nil {
				return err
			}
			count := propBlockSize / int(op.typ.Size())
			if err := f.ReadTyped(got[k], count, op.typ); err != nil {
				return err
			}
		}
		if err := f.Fetch(); err != nil {
			return err
		}
		for k, op := range ops {
			if !bytes.Equal(got[k], op.data) {
				return fmt.Errorf("rank %d record %d: typed read mismatch", c.Rank(), k)
			}
		}
		return f.Close()
	})
}

// mpiiFS pairs a fresh shared file system with a 4-rank runner.
type mpiiFS struct {
	fs *pfs.FileSystem
}

func newMpiiFS() *mpiiFS { return &mpiiFS{fs: sharedFS()} }

func (m *mpiiFS) run(fn func(*mpi.Comm) error) error {
	_, err := mpi.Run(mpi.Config{Procs: propProcs, Machine: cluster.Lonestar(), FS: m.fs}, fn)
	return err
}

// snapshot returns the named file's full contents, zero-padded to the
// plan's total size so sparse tails still compare.
func (m *mpiiFS) snapshot(name string) []byte {
	snap := m.fs.Open(name).Snapshot()
	want := propProcs * propBlocks * propBlockSize
	for len(snap) < want {
		snap = append(snap, 0)
	}
	return snap
}

func TestTypedPlansRoundTrip(t *testing.T) {
	var failure error
	prop := func(seed int64) bool {
		plan := propPlan(seed)
		want := propExpected(plan)

		tcioFS, err := writeTCIO(plan)
		if err != nil {
			failure = fmt.Errorf("seed %d: tcio write: %w", seed, err)
			return false
		}
		ocioFS, err := writeOCIO(plan)
		if err != nil {
			failure = fmt.Errorf("seed %d: ocio write: %w", seed, err)
			return false
		}
		posixFS, err := writePOSIX(plan)
		if err != nil {
			failure = fmt.Errorf("seed %d: posix write: %w", seed, err)
			return false
		}

		for name, fs := range map[string]*mpiiFS{"tcio": tcioFS, "ocio": ocioFS, "posix": posixFS} {
			if got := fs.snapshot("prop"); !bytes.Equal(got, want) {
				failure = fmt.Errorf("seed %d: %s file diverges from ground truth", seed, name)
				return false
			}
		}
		if err := readTypedTCIO(tcioFS, plan); err != nil {
			failure = fmt.Errorf("seed %d: tcio read-back: %w", seed, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("%v (%v)", err, failure)
	}
}

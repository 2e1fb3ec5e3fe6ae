package tcio

import (
	"fmt"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/mpi"
	"github.com/tcio/tcio/internal/pfs"
)

// Multi-file regression tests for the session refactor: one rank holding
// several concurrently open TCIO files must keep every piece of per-file
// engine state — ledgers, level-1 buffers, landing records — fully
// independent.

func mfByte(file int, off int64) byte { return byte(off*11 + int64(file)*59 + 1) }

// TestMultiFileIndependentLedgers interleaves writes to two concurrently
// open files and checks each file's image and that each file's ledger
// counts its own writes only.
func TestMultiFileIndependentLedgers(t *testing.T) {
	const procs = 4
	const segSize, numSeg, granule = int64(64), 4, int64(16)
	sizes := []int64{segSize * numSeg * procs, segSize * numSeg * procs / 2}
	fs := pfs.New(pfs.DefaultConfig())
	cfg := Config{SegmentSize: segSize, NumSegments: numSeg}
	type pair struct{ a, b Stats }
	ledgers := make([]pair, procs)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		fa, err := Open(c, "mf-a", WriteMode, cfg)
		if err != nil {
			return err
		}
		fb, err := Open(c, "mf-b", WriteMode, cfg)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		fill := func(file int, off int64) {
			for i := range buf {
				buf[i] = mfByte(file, off+int64(i))
			}
		}
		// Strict interleaving: alternate files between consecutive writes
		// so any cross-file state bleed (shared level-1 buffer, shared
		// ledgers) corrupts bytes or counters.
		for k := int64(c.Rank()); k*granule < sizes[0]; k += int64(c.Size()) {
			off := k * granule
			fill(0, off)
			if err := fa.WriteAt(off, buf); err != nil {
				return err
			}
			if offB := off % sizes[1]; true {
				fill(1, offB)
				if err := fb.WriteAt(offB, buf); err != nil {
					return err
				}
			}
		}
		if err := fa.Close(); err != nil {
			return err
		}
		if err := fb.Close(); err != nil {
			return err
		}
		ledgers[c.Rank()] = pair{a: fa.Stats(), b: fb.Stats()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	img := fs.Open("mf-a").Snapshot()
	for off := int64(0); off < sizes[0]; off++ {
		if img[off] != mfByte(0, off) {
			t.Fatalf("mf-a byte %d = %d, want %d", off, img[off], mfByte(0, off))
		}
	}
	for r, l := range ledgers {
		for name, s := range map[string]Stats{"mf-a": l.a, "mf-b": l.b} {
			if s.Writes == 0 || s.FSWrites == 0 {
				t.Fatalf("rank %d %s: empty ledger %+v", r, name, s)
			}
		}
		// Both files got one write per iteration; pooled ledgers would
		// double one side's counts.
		if l.a.Writes != l.b.Writes {
			t.Fatalf("rank %d: ledger cross-talk: a.Writes=%d b.Writes=%d", r, l.a.Writes, l.b.Writes)
		}
		if l.a.BytesWritten != l.a.Writes*granule || l.b.BytesWritten != l.b.Writes*granule {
			t.Fatalf("rank %d: byte ledgers pooled: a=%+v b=%+v", r, l.a, l.b)
		}
	}
}

// TestMultiFileIndependentDemand opens two demand-populated read-mode files
// and alternates reads between them: each file's posted populations must
// land in its own window and count in its own ledger — a shared window or
// landing record would serve file A's bytes for file B.
func TestMultiFileIndependentDemand(t *testing.T) {
	const procs = 2
	const segSize, numSeg = int64(64), 4
	fileBytes := segSize * numSeg * procs
	fs := pfs.New(pfs.DefaultConfig())
	// Seed both files directly in the file system.
	for fi, name := range []string{"pf-a", "pf-b"} {
		pf := fs.Open(name)
		buf := make([]byte, fileBytes)
		for off := range buf {
			buf[off] = mfByte(fi, int64(off))
		}
		if _, err := pf.WriteAt(0, 0, buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{SegmentSize: segSize, NumSegments: numSeg, DemandPopulate: true}
	statsCh := make([]([2]Stats), procs)
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		fa, err := Open(c, "pf-a", ReadMode, cfg)
		if err != nil {
			return err
		}
		fb, err := Open(c, "pf-b", ReadMode, cfg)
		if err != nil {
			return err
		}
		// Each ReadAt spans two consecutive segments, so every Fetch batch
		// posts two populations.
		step := 2 * segSize
		n := fileBytes / int64(c.Size())
		base := int64(c.Rank()) * n
		bufA, bufB := make([]byte, step), make([]byte, step)
		for off := base; off+step <= base+n; off += step {
			if err := fa.ReadAt(off, bufA); err != nil {
				return err
			}
			if err := fa.Fetch(); err != nil {
				return err
			}
			if err := fb.ReadAt(off, bufB); err != nil {
				return err
			}
			if err := fb.Fetch(); err != nil {
				return err
			}
			for i := range bufA {
				if bufA[i] != mfByte(0, off+int64(i)) {
					return fmt.Errorf("rank %d: pf-a byte %d = %d, want %d",
						c.Rank(), off+int64(i), bufA[i], mfByte(0, off+int64(i)))
				}
				if bufB[i] != mfByte(1, off+int64(i)) {
					return fmt.Errorf("rank %d: pf-b byte %d = %d, want %d",
						c.Rank(), off+int64(i), bufB[i], mfByte(1, off+int64(i)))
				}
			}
		}
		ea, eb := fa.Close(), fb.Close()
		if ea != nil {
			return ea
		}
		if eb != nil {
			return eb
		}
		statsCh[c.Rank()] = [2]Stats{fa.Stats(), fb.Stats()}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank demands its own region, numSeg segments of each file.
	for r, st := range statsCh {
		for fi := range st {
			if st[fi].Populations != numSeg {
				t.Fatalf("rank %d file %d: %d populations, want %d: %+v", r, fi, st[fi].Populations, numSeg, st[fi])
			}
		}
	}
}

// TestMultiFileInterleavedRace is the -race interleaving canary: many
// ranks, three files each (two write-mode, one demand-populated
// read-mode), with tightly interleaved operations. It exists to let the
// race detector see concurrent multi-file traffic; correctness of the
// bytes is checked too.
func TestMultiFileInterleavedRace(t *testing.T) {
	const procs = 6
	const segSize, numSeg, granule = int64(64), 4, int64(32)
	fileBytes := segSize * numSeg * procs
	fs := pfs.New(pfs.DefaultConfig())
	// Seed the read-mode file.
	pf := fs.Open("race-r")
	seed := make([]byte, fileBytes)
	for off := range seed {
		seed[off] = mfByte(2, int64(off))
	}
	if _, err := pf.WriteAt(0, 0, seed, 0); err != nil {
		t.Fatal(err)
	}
	wcfg := Config{SegmentSize: segSize, NumSegments: numSeg}
	rcfg := Config{SegmentSize: segSize, NumSegments: numSeg, DemandPopulate: true}
	_, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar(), FS: fs}, func(c *mpi.Comm) error {
		fa, err := Open(c, "race-a", WriteMode, wcfg)
		if err != nil {
			return err
		}
		fb, err := Open(c, "race-b", WriteMode, wcfg)
		if err != nil {
			return err
		}
		fr, err := Open(c, "race-r", ReadMode, rcfg)
		if err != nil {
			return err
		}
		buf := make([]byte, granule)
		dst := make([]byte, granule)
		for k := int64(c.Rank()); k*granule < fileBytes; k += int64(c.Size()) {
			off := k * granule
			for i := range buf {
				buf[i] = mfByte(0, off+int64(i))
			}
			if err := fa.WriteAt(off, buf); err != nil {
				return err
			}
			if err := fr.ReadAt(off, dst); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = mfByte(1, off+int64(i))
			}
			if err := fb.WriteAt(off, buf); err != nil {
				return err
			}
			if err := fr.Fetch(); err != nil {
				return err
			}
			for i := range dst {
				if dst[i] != mfByte(2, off+int64(i)) {
					return fmt.Errorf("rank %d: race-r byte %d corrupted", c.Rank(), off+int64(i))
				}
			}
		}
		for _, f := range []*File{fa, fb, fr} {
			if err := f.Close(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for fi, name := range []string{"race-a", "race-b"} {
		img := fs.Open(name).Snapshot()
		for off := int64(0); off < fileBytes; off++ {
			if img[off] != mfByte(fi, off) {
				t.Fatalf("%s byte %d = %d, want %d", name, off, img[off], mfByte(fi, off))
			}
		}
	}
}

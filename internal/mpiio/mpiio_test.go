package mpiio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tcio/tcio/internal/cluster"
	"github.com/tcio/tcio/internal/datatype"
	"github.com/tcio/tcio/internal/extent"
	"github.com/tcio/tcio/internal/mpi"
)

func run(t *testing.T, procs int, fn func(*mpi.Comm) error) mpi.Report {
	t.Helper()
	rep, err := mpi.Run(mpi.Config{Procs: procs, Machine: cluster.Lonestar()}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIndependentWriteReadRoundTrip(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "indep")
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := f.WriteAt(10, []byte("hello")); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := f.ReadAt(10, 5)
		if err != nil {
			return err
		}
		if string(got) != "hello" {
			return fmt.Errorf("read %q", got)
		}
		return nil
	})
}

func TestWriteAdvancesPointer(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "ptr")
		if err != nil {
			return err
		}
		if err := f.WriteAll([]byte("ab")); err != nil {
			return err
		}
		if err := f.WriteAll([]byte("cd")); err != nil {
			return err
		}
		got, err := f.ReadAt(0, 4)
		if err != nil {
			return err
		}
		if string(got) != "abcd" {
			return fmt.Errorf("file = %q", got)
		}
		if err := f.SeekTo(1); err != nil {
			return err
		}
		r, err := f.ReadAll(2)
		if err != nil {
			return err
		}
		if string(r) != "bc" {
			return fmt.Errorf("ReadAll after SeekTo = %q", r)
		}
		return nil
	})
}

func TestSetViewValidation(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "v")
		if err != nil {
			return err
		}
		if err := f.SetView(-1, datatype.Byte, datatype.Byte); err == nil {
			return errors.New("negative disp accepted")
		}
		v, _ := datatype.Vector(0, 1, 1, datatype.Int) // size 0
		if err := f.SetView(0, datatype.Byte, v); err == nil {
			return errors.New("empty filetype accepted")
		}
		// filetype not a multiple of etype
		if err := f.SetView(0, datatype.Int, datatype.Short); err == nil {
			return errors.New("mismatched etype accepted")
		}
		if err := f.SeekTo(-1); err == nil {
			return errors.New("negative seek accepted")
		}
		return nil
	})
}

func TestFlattenThroughVectorView(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "flat")
		if err != nil {
			return err
		}
		// filetype: 4-byte block every 12 bytes.
		ft, _ := datatype.Vector(3, 1, 3, datatype.Int)
		rt, _ := datatype.Resized(ft, 36)
		if err := f.SetView(100, datatype.Int, rt); err != nil {
			return err
		}
		runs, err := f.viewRuns(2, 12)
		if err != nil {
			return err
		}
		want := []datatype.Segment{{Off: 102, Len: 2}, {Off: 112, Len: 4}, {Off: 124, Len: 4}, {Off: 136, Len: 2}}
		if !reflect.DeepEqual(runs, want) {
			return fmt.Errorf("runs = %v, want %v", runs, want)
		}
		return nil
	})
}

// paperView builds the Fig. 2 view for a rank: etype = int+double pair,
// filetype strides over nprocs pairs, displacement = rank * pair size.
func paperView(f *File, rank, nprocs, pairs int) error {
	etype, err := datatype.Struct([]int{1, 1}, []int64{0, 4}, []datatype.Type{datatype.Int, datatype.Double})
	if err != nil {
		return err
	}
	ft, err := datatype.Vector(pairs, 1, nprocs, etype)
	if err != nil {
		return err
	}
	rt, err := datatype.Resized(ft, int64(pairs*nprocs)*etype.Extent())
	if err != nil {
		return err
	}
	return f.SetView(int64(rank)*etype.Extent(), etype, rt)
}

// paperReference computes the expected file contents of the Fig. 2 pattern:
// process p's i-th (int, double) pair lands at block index i*nprocs+p.
func paperReference(nprocs, pairs int) []byte {
	out := make([]byte, nprocs*pairs*12)
	for p := 0; p < nprocs; p++ {
		for i := 0; i < pairs; i++ {
			off := (i*nprocs + p) * 12
			binary.LittleEndian.PutUint32(out[off:], uint32(p*1000+i))
			binary.LittleEndian.PutUint64(out[off+4:], uint64(p*7000+i))
		}
	}
	return out
}

func TestWriteAllPaperExample(t *testing.T) {
	const procs, pairs = 2, 3
	var snapshot []byte
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "fig2")
		if err != nil {
			return err
		}
		if err := paperView(f, c.Rank(), procs, pairs); err != nil {
			return err
		}
		// Combine the two "arrays" into one application buffer, as
		// Program 2 requires.
		buf := make([]byte, pairs*12)
		for i := 0; i < pairs; i++ {
			binary.LittleEndian.PutUint32(buf[i*12:], uint32(c.Rank()*1000+i))
			binary.LittleEndian.PutUint64(buf[i*12+4:], uint64(c.Rank()*7000+i))
		}
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snapshot = f.PFS().Snapshot()
		}
		return nil
	})
	want := paperReference(procs, pairs)
	if !bytes.Equal(snapshot, want) {
		t.Fatalf("file contents differ\n got %v\nwant %v", snapshot, want)
	}
}

func TestReadAllPaperExample(t *testing.T) {
	const procs, pairs = 4, 5
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "fig2r")
		if err != nil {
			return err
		}
		// Seed the file from rank 0 with the reference image.
		if c.Rank() == 0 {
			if err := f.WriteAt(0, paperReference(procs, pairs)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if err := paperView(f, c.Rank(), procs, pairs); err != nil {
			return err
		}
		got, err := f.ReadAll(int64(pairs * 12))
		if err != nil {
			return err
		}
		for i := 0; i < pairs; i++ {
			iv := binary.LittleEndian.Uint32(got[i*12:])
			dv := binary.LittleEndian.Uint64(got[i*12+4:])
			if iv != uint32(c.Rank()*1000+i) || dv != uint64(c.Rank()*7000+i) {
				return fmt.Errorf("rank %d pair %d = (%d,%d)", c.Rank(), i, iv, dv)
			}
		}
		return nil
	})
}

func TestWriteAllManyRanksMatchesReference(t *testing.T) {
	const procs, pairs = 8, 16
	var snapshot []byte
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "many")
		if err != nil {
			return err
		}
		if err := paperView(f, c.Rank(), procs, pairs); err != nil {
			return err
		}
		buf := make([]byte, pairs*12)
		for i := 0; i < pairs; i++ {
			binary.LittleEndian.PutUint32(buf[i*12:], uint32(c.Rank()*1000+i))
			binary.LittleEndian.PutUint64(buf[i*12+4:], uint64(c.Rank()*7000+i))
		}
		if err := f.WriteAll(buf); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snapshot = f.PFS().Snapshot()
		}
		return nil
	})
	if !bytes.Equal(snapshot, paperReference(procs, pairs)) {
		t.Fatal("8-rank collective write does not match reference")
	}
}

func TestWriteAllWithHolesPreservesExistingBytes(t *testing.T) {
	const procs = 2
	var snapshot []byte
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "holes")
		if err != nil {
			return err
		}
		// Pre-existing content everywhere.
		if c.Rank() == 0 {
			if err := f.WriteAt(0, bytes.Repeat([]byte{0xEE}, 64)); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		// Each rank writes 4 bytes every 32 bytes: most of the domain is
		// a hole.
		ft, _ := datatype.Vector(2, 1, 8, datatype.Int)
		rt, _ := datatype.Resized(ft, 64)
		if err := f.SetView(int64(16*c.Rank()), datatype.Int, rt); err != nil {
			return err
		}
		if err := f.WriteAll([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
			return err
		}
		if c.Rank() == 0 {
			snapshot = f.PFS().Snapshot()
		}
		return nil
	})
	want := bytes.Repeat([]byte{0xEE}, 64)
	copy(want[0:], []byte{1, 2, 3, 4})
	copy(want[32:], []byte{5, 6, 7, 8})
	copy(want[16:], []byte{1, 2, 3, 4})
	copy(want[48:], []byte{5, 6, 7, 8})
	if !bytes.Equal(snapshot, want) {
		t.Fatalf("holes overwritten:\n got %v\nwant %v", snapshot, want)
	}
}

func TestWriteAllEmptyRequestAllRanks(t *testing.T) {
	run(t, 3, func(c *mpi.Comm) error {
		f, err := Open(c, "empty")
		if err != nil {
			return err
		}
		return f.WriteAll(nil)
	})
}

func TestReadAllEmptyRequest(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		f, err := Open(c, "emptyr")
		if err != nil {
			return err
		}
		got, err := f.ReadAll(0)
		if err != nil {
			return err
		}
		if len(got) != 0 {
			return fmt.Errorf("got %d bytes", len(got))
		}
		return nil
	})
}

func TestWriteAllAggregatorOOM(t *testing.T) {
	m := cluster.Lonestar()
	m.ByteScale = 1 << 21 // every real byte costs 2 MiB simulated
	_, err := mpi.Run(mpi.Config{Procs: 12, Machine: m, EnforceMemory: true}, func(c *mpi.Comm) error {
		f, err := Open(c, "oom")
		if err != nil {
			return err
		}
		// 2 KiB per rank -> 4 GiB simulated aggregate; each aggregator's
		// domain buffer alone exceeds the 2 GiB per-rank share? Domain is
		// aggregate/12 ~ 341 MiB; make the request bigger via a large
		// contiguous region per rank instead: each rank writes 2 KiB at
		// rank*2KiB (domain per aggregator = 2 KiB = 4 GiB simulated).
		if err := f.SeekTo(int64(c.Rank()) * 2048); err != nil {
			return err
		}
		return f.WriteAll(make([]byte, 2048))
	})
	if err == nil {
		t.Fatal("expected aggregator OOM")
	}
	if !errors.Is(err, cluster.ErrOutOfMemory) && !errors.Is(err, mpi.ErrAborted) {
		t.Fatalf("error = %v", err)
	}
}

func TestRandomInterleavedCollectiveRoundTrip(t *testing.T) {
	// Randomized cross-check: every rank writes random blocks through a
	// random (but monotone) indexed view; then all ranks read them back
	// collectively and compare.
	for seed := int64(0); seed < 3; seed++ {
		const procs = 4
		var snapshot []byte
		refs := make([][]byte, procs)
		views := make([]datatype.Type, procs)
		rng := rand.New(rand.NewSource(seed))
		// Build non-overlapping per-rank views over a 4 KiB file space:
		// slot i belongs to rank i%procs; each rank takes a random subset
		// of its slots.
		const slots = 64
		const slotLen = 16
		for r := 0; r < procs; r++ {
			var lens, displs []int
			for s := r; s < slots; s += procs {
				if rng.Intn(3) == 0 {
					continue // leave a hole
				}
				lens = append(lens, slotLen)
				displs = append(displs, s*slotLen)
			}
			if len(lens) == 0 {
				lens, displs = []int{slotLen}, []int{r * slotLen}
			}
			ty, err := datatype.Indexed(lens, displs, datatype.Byte)
			if err != nil {
				t.Fatal(err)
			}
			views[r] = ty
			data := make([]byte, ty.Size())
			rng.Read(data)
			refs[r] = data
		}
		name := fmt.Sprintf("rand%d", seed)
		run(t, procs, func(c *mpi.Comm) error {
			f, err := Open(c, name)
			if err != nil {
				return err
			}
			if err := f.SetView(0, datatype.Byte, views[c.Rank()]); err != nil {
				return err
			}
			if err := f.WriteAll(refs[c.Rank()]); err != nil {
				return err
			}
			if err := f.SeekTo(0); err != nil {
				return err
			}
			got, err := f.ReadAll(int64(len(refs[c.Rank()])))
			if err != nil {
				return err
			}
			if !bytes.Equal(got, refs[c.Rank()]) {
				return fmt.Errorf("rank %d: collective read-back mismatch", c.Rank())
			}
			if c.Rank() == 0 {
				snapshot = f.PFS().Snapshot()
			}
			return nil
		})
		// Verify the file against a serially assembled reference.
		want := make([]byte, 0)
		for r := 0; r < procs; r++ {
			at := 0
			for _, s := range views[r].Segments() {
				end := int(s.Off + s.Len)
				if end > len(want) {
					want = append(want, make([]byte, end-len(want))...)
				}
				copy(want[s.Off:end], refs[r][at:at+int(s.Len)])
				at += int(s.Len)
			}
		}
		if !bytes.Equal(snapshot[:len(want)], want) {
			t.Fatalf("seed %d: file does not match serial reference", seed)
		}
	}
}

func TestFileDomains(t *testing.T) {
	p := extent.NewPartition(100, 200, 4)
	want := []extent.Extent{{Off: 100, Len: 25}, {Off: 125, Len: 25}, {Off: 150, Len: 25}, {Off: 175, Len: 25}}
	for k, d := range want {
		if got := p.Domain(k); got != d {
			t.Fatalf("Domain(%d) = %v, want %v", k, got, d)
		}
	}
	// Non-divisible: last domain clipped.
	p = extent.NewPartition(0, 10, 3)
	if p.Domain(2).End() != 10 || p.Domain(0).Len != 4 {
		t.Fatalf("domains = %v .. %v", p.Domain(0), p.Domain(2))
	}
	// Empty domain.
	p = extent.NewPartition(5, 5, 2)
	if p.Domain(0).Len != 0 || p.Domain(1).Len != 0 {
		t.Fatalf("domains = %v, %v", p.Domain(0), p.Domain(1))
	}
}

func TestSplitByDomain(t *testing.T) {
	p := extent.NewPartition(0, 100, 2)
	runs := []datatype.Segment{{Off: 40, Len: 20}} // spans the boundary at 50
	first := make([]int, 3)
	plan := extent.Cut(p, nil, first, runs)
	if !reflect.DeepEqual(plan, []extent.Extent{{Off: 40, Len: 10}, {Off: 50, Len: 10}}) {
		t.Fatalf("plan = %v", plan)
	}
	if !reflect.DeepEqual(first, []int{0, 1, 2}) {
		t.Fatalf("first = %v", first)
	}
}

func TestEncodeDecodeRuns(t *testing.T) {
	runs := []datatype.Segment{{Off: 1, Len: 2}, {Off: 100, Len: 3}}
	payload := []byte{9, 8, 7, 6, 5}
	msg := refEncodeRuns(runs, payload)
	gotRuns, total, err := checkRuns(nil, msg, extent.Extent{Off: 0, Len: 200}, true)
	if err != nil {
		t.Fatal(err)
	}
	_, gotPayload := runTable(msg)
	if total != 5 || !reflect.DeepEqual(gotRuns, runs) || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("round trip: %d bytes, %v %v", total, gotRuns, gotPayload)
	}
	if _, _, err := checkRuns(nil, []byte{1}, extent.Extent{Len: 200}, true); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, _, err := checkRuns(nil, []byte{5, 0, 0, 0}, extent.Extent{Len: 200}, true); err == nil {
		t.Fatal("short run table accepted")
	}
}

// TestCoversDomain pins the aggregator's coverage decision: runs that tile
// its domain skip the preread and land in the buffer; a hole, or no runs at
// all, leaves the buffer for the read-modify-write.
func TestCoversDomain(t *testing.T) {
	mine := extent.Extent{Off: 10, Len: 20}
	for _, tc := range []struct {
		name string
		msgs [][]datatype.Segment
		want bool
	}{
		{"two senders tile it", [][]datatype.Segment{{{Off: 20, Len: 10}}, {{Off: 10, Len: 10}}}, true},
		{"hole", [][]datatype.Segment{{{Off: 10, Len: 5}, {Off: 20, Len: 10}}}, false},
		{"no runs", [][]datatype.Segment{nil, nil}, false},
	} {
		f := &File{}
		for _, runs := range tc.msgs {
			payload := bytes.Repeat([]byte{7}, int(extent.Total(runs)))
			f.recv = append(f.recv, refEncodeRuns(runs, payload))
		}
		buf := make([]byte, mine.Len)
		runs, covered, err := f.assemble(mine, buf)
		switch {
		case err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case covered != tc.want:
			t.Errorf("%s: covered = %v, want %v (%d runs)", tc.name, covered, tc.want, runs)
		case covered && !bytes.Equal(buf, bytes.Repeat([]byte{7}, int(mine.Len))):
			t.Errorf("%s: covered domain not scattered: %v", tc.name, buf)
		}
	}
}

// TestOpenRejectsEmptyName covers Open's error contract: MPI_File_open
// reports failures through a return code, and so does Open now.
func TestOpenRejectsEmptyName(t *testing.T) {
	_, err := mpi.Run(mpi.Config{Procs: 1, Machine: cluster.Lonestar()}, func(c *mpi.Comm) error {
		if f, err := Open(c, ""); err == nil || f != nil {
			t.Errorf("Open with empty name: f=%v err=%v, want nil+error", f, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadAtIntoMatchesReadAt reads the same visible range through a
// strided view with both entry points, with and without data sieving.
func TestReadAtIntoMatchesReadAt(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "into")
		if err != nil {
			return err
		}
		img := make([]byte, 400)
		rand.New(rand.NewSource(3)).Read(img)
		if err := f.WriteAt(0, img); err != nil {
			return err
		}
		ft, _ := datatype.Vector(3, 1, 3, datatype.Int)
		if err := f.SetView(8, datatype.Int, ft); err != nil {
			return err
		}
		for _, sieve := range []bool{false, true} {
			f.SetSieving(sieve)
			want, err := f.ReadAt(2, 40)
			if err != nil {
				return err
			}
			got := make([]byte, 40)
			if err := f.ReadAtInto(2, got); err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("sieving=%v: ReadAtInto = %x, ReadAt = %x", sieve, got, want)
			}
		}
		if err := f.ReadAtInto(-1, make([]byte, 4)); err == nil {
			return errors.New("negative offset accepted")
		}
		if _, err := f.ReadAt(0, -1); err == nil {
			return errors.New("negative length accepted")
		}
		return nil
	})
}

// TestViewFlatteningDoesNotAllocate pins the independent path's host cost:
// under the default byte view, and under a strided view once the handle's
// scratch list has grown, mapping a request to file runs allocates nothing
// whatever the request's size.
func TestViewFlatteningDoesNotAllocate(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		f, err := Open(c, "noalloc")
		if err != nil {
			return err
		}
		flatten := func() {
			if runs, err := f.viewRuns(12345, 1<<16); err != nil || len(runs) == 0 {
				panic(fmt.Sprint(runs, err))
			}
		}
		if a := testing.AllocsPerRun(100, flatten); a != 0 {
			return fmt.Errorf("byte view: %v allocs per flatten, want 0", a)
		}
		ft, _ := datatype.Vector(512, 1, 4, datatype.Int)
		if err := f.SetView(0, datatype.Int, ft); err != nil {
			return err
		}
		flatten() // grows the scratch list once
		if a := testing.AllocsPerRun(100, flatten); a != 0 {
			return fmt.Errorf("vector view: %v allocs per flatten, want 0", a)
		}
		return nil
	})
}

// TestWriteAtCopiesBeforeReturning pins the caller-buffer contract
// checkpoint writers rely on (art.Dump encodes every tree into one reused
// record buffer): data belongs to the caller again the moment an
// independent WriteAt returns. Every rank writes all its pieces from one
// buffer and scribbles over it after each call.
func TestWriteAtCopiesBeforeReturning(t *testing.T) {
	pattern := func(off int64) byte { return byte(off*31 + off>>8 + 1) }
	sizes := []int64{5, 59, 64, 100, 200, 1}
	const procs, stride = 3, 500
	run(t, procs, func(c *mpi.Comm) error {
		f, err := Open(c, "contract")
		if err != nil {
			return err
		}
		buf := make([]byte, 200)
		off := int64(c.Rank()) * stride
		for _, n := range sizes {
			for i := range buf[:n] {
				buf[i] = pattern(off + int64(i))
			}
			if err := f.WriteAt(off, buf[:n]); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = 0xEE
			}
			off += n
		}
		if err := f.Close(); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil || c.Rank() != 0 {
			return err
		}
		img := c.FS().Open("contract").Snapshot()
		for r := int64(0); r < procs; r++ {
			for o := r * stride; o < r*stride+429; o++ {
				if img[o] != pattern(o) {
					return fmt.Errorf("file byte %d is %#x, want %#x: WriteAt kept the caller's slice", o, img[o], pattern(o))
				}
			}
		}
		return nil
	})
}
